//! Sequential archive ("tape") storage for the raw database.
//!
//! The paper assumes the raw statistical database "will almost always
//! reside on slow secondary storage devices such as tapes" (§2.3), and
//! builds its whole architecture — materialize a concrete view once,
//! keep it on disk — around how expensive it is to go back to the tape.
//!
//! An [`ArchiveStore`] holds named *reels*. A reel is an append-only
//! sequence of variable-length blocks that can only be read through a
//! [`ReelReader`] which models a physical tape head: reading block `i`
//! while positioned at block `j` charges a repositioning cost of
//! `|i - j|` blocks on the shared tracker, plus the block transfer
//! itself. Experiments E9 and E12 use these counters to show when
//! materialization amortizes.
//!
//! Tape is the least reliable medium in the hierarchy, so each block
//! carries a CRC32 computed at append time and verified on every read,
//! and the shared [`FaultInjector`] is consulted on both appends and
//! reads: transient read faults are retried under the store's
//! [`RetryPolicy`], permanent faults model a damaged stretch of tape,
//! and injected corruption flips a stored bit that the next read's CRC
//! verification catches.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, Rank};

use crate::budget::charge_ambient_ops;
use crate::checksum::crc32;
use crate::cost::Tracker;
use crate::error::{Result, StorageError};
use crate::fault::{Device, FaultInjector, InjectedFault, IoOp};
use crate::retry::{with_retries, RetryPolicy};

/// One tape block and the checksum recorded beside it.
#[derive(Debug, Clone)]
struct Block {
    data: Arc<[u8]>,
    crc: u32,
}

#[derive(Debug, Default)]
struct Reel {
    blocks: Vec<Block>,
}

/// A collection of named append-only tape reels.
pub struct ArchiveStore {
    reels: Mutex<HashMap<String, Reel>>,
    tracker: Tracker,
    injector: Arc<FaultInjector>,
    retry: RetryPolicy,
}

impl std::fmt::Debug for ArchiveStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArchiveStore")
            .field("reels", &self.reels.lock().len())
            .finish()
    }
}

impl ArchiveStore {
    /// Create an empty archive charging the given tracker, with fault
    /// injection disabled.
    #[must_use]
    pub fn new(tracker: Tracker) -> Self {
        Self::with_faults(
            tracker,
            Arc::new(FaultInjector::disabled()),
            RetryPolicy::default(),
        )
    }

    /// Create an empty archive that consults `injector` on every block
    /// I/O and retries transient faults under `retry`.
    #[must_use]
    pub fn with_faults(tracker: Tracker, injector: Arc<FaultInjector>, retry: RetryPolicy) -> Self {
        ArchiveStore {
            reels: Mutex::new(Rank::ArchiveReels, HashMap::new()),
            tracker,
            injector,
            retry,
        }
    }

    /// The shared I/O tracker this archive charges.
    #[must_use]
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// The fault injector this archive consults.
    #[must_use]
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Create an empty reel. Fails if the name is taken.
    pub fn create_reel(&self, name: &str) -> Result<()> {
        let mut reels = self.reels.lock();
        if reels.contains_key(name) {
            return Err(StorageError::FileExists(name.to_string()));
        }
        reels.insert(name.to_string(), Reel::default());
        Ok(())
    }

    /// Append a block to a reel. Writing is free in the cost model
    /// (the raw database is loaded once, offline), but the fault
    /// injector is still consulted: a transient fault is retried, and
    /// injected corruption stores a flipped bit that the next read's
    /// CRC verification will catch.
    pub fn append_block(&self, name: &str, block: &[u8]) -> Result<()> {
        with_retries(&self.retry, &self.tracker, || {
            self.append_attempt(name, block)
        })
    }

    fn append_attempt(&self, name: &str, block: &[u8]) -> Result<()> {
        charge_ambient_ops(1)?;
        let mut reels = self.reels.lock();
        let reel = reels
            .get_mut(name)
            .ok_or_else(|| StorageError::NoSuchReel(name.to_string()))?;
        let index = reel.blocks.len() as u64;
        let fault = self
            .injector
            .decide(Device::Archive, IoOp::Write, index, block.len());
        match fault {
            Some(InjectedFault::Crash) => return Err(StorageError::Crashed),
            Some(InjectedFault::Transient) => {
                return Err(StorageError::TransientFault {
                    device: "archive",
                    id: index,
                })
            }
            Some(InjectedFault::Permanent) => {
                return Err(StorageError::PermanentFault {
                    device: "archive",
                    id: index,
                })
            }
            Some(InjectedFault::Delay { units }) => {
                // Slow-but-correct I/O: charge the stall as backoff and
                // spend it from the ambient request budget.
                self.tracker.count_backoff(units);
                charge_ambient_ops(units)?;
            }
            Some(InjectedFault::Corrupt { .. }) | None => {}
        }
        let crc = crc32(block);
        let mut data: Vec<u8> = block.to_vec();
        if let Some(InjectedFault::Corrupt { bit }) = fault {
            if !data.is_empty() {
                let byte = (bit / 8) % data.len();
                data[byte] ^= 1 << (bit % 8);
            }
        }
        reel.blocks.push(Block {
            data: Arc::from(data),
            crc,
        });
        Ok(())
    }

    /// Names of all reels, sorted.
    #[must_use]
    pub fn reel_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.reels.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Mount a reel for reading. The head starts at block 0.
    pub fn open(&self, name: &str) -> Result<ReelReader> {
        let reels = self.reels.lock();
        let reel = reels
            .get(name)
            .ok_or_else(|| StorageError::NoSuchReel(name.to_string()))?;
        Ok(ReelReader {
            name: name.to_string(),
            blocks: reel.blocks.clone(),
            position: 0,
            tracker: self.tracker.clone(),
            injector: self.injector.clone(),
            retry: self.retry,
        })
    }
}

/// A tape head over one reel. Sequential reads are cheap; seeking
/// backwards (or skipping forwards) charges repositioning per block.
pub struct ReelReader {
    name: String,
    blocks: Vec<Block>,
    position: usize,
    tracker: Tracker,
    injector: Arc<FaultInjector>,
    retry: RetryPolicy,
}

impl std::fmt::Debug for ReelReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReelReader")
            .field("reel", &self.name)
            .field("position", &self.position)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl ReelReader {
    /// Reel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current head position (next block to be read).
    #[must_use]
    pub fn position(&self) -> usize {
        self.position
    }

    /// Total blocks on the mounted reel snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the reel has no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Read the block under the head and advance. Errors at end of
    /// reel. Transient faults are retried under the store's policy
    /// (charging the tracker); block bytes are verified against the
    /// CRC recorded at append time.
    pub fn read_next(&mut self) -> Result<Arc<[u8]>> {
        let retry = self.retry;
        let tracker = self.tracker.clone();
        with_retries(&retry, &tracker, || self.read_attempt())
    }

    fn read_attempt(&mut self) -> Result<Arc<[u8]>> {
        charge_ambient_ops(1)?;
        let index = self.position as u64;
        let len = self.blocks.get(self.position).map_or(0, |b| b.data.len());
        match self
            .injector
            .decide(Device::Archive, IoOp::Read, index, len)
        {
            Some(InjectedFault::Crash) => return Err(StorageError::Crashed),
            Some(InjectedFault::Transient) => {
                self.tracker.count_archive_read();
                return Err(StorageError::TransientFault {
                    device: "archive",
                    id: index,
                });
            }
            Some(InjectedFault::Permanent) => {
                self.tracker.count_archive_read();
                return Err(StorageError::PermanentFault {
                    device: "archive",
                    id: index,
                });
            }
            Some(InjectedFault::Delay { units }) => {
                // Slow-but-correct I/O, as on the disk read path.
                self.tracker.count_backoff(units);
                charge_ambient_ops(units)?;
            }
            Some(InjectedFault::Corrupt { .. }) | None => {}
        }
        match self.blocks.get(self.position) {
            Some(b) => {
                self.position += 1;
                self.tracker.count_archive_read();
                if crc32(&b.data) != b.crc {
                    self.tracker.count_checksum_failure();
                    return Err(StorageError::ChecksumMismatch {
                        device: "archive",
                        id: index,
                    });
                }
                Ok(b.data.clone())
            }
            None => Err(StorageError::EndOfReel {
                reel: self.name.clone(),
                position: self.position,
            }),
        }
    }

    /// Rewind to block 0, charging repositioning for the distance.
    pub fn rewind(&mut self) {
        self.tracker.count_archive_reposition(self.position as u64);
        self.position = 0;
    }

    /// Position the head at `block`, charging repositioning for the
    /// distance moved (forward skips cost the same as rewinds: the
    /// tape still has to run past every block).
    pub fn seek(&mut self, block: usize) -> Result<()> {
        if block > self.blocks.len() {
            return Err(StorageError::EndOfReel {
                reel: self.name.clone(),
                position: block,
            });
        }
        let dist = self.position.abs_diff(block);
        self.tracker.count_archive_reposition(dist as u64);
        self.position = block;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, ScriptedFault};

    fn archive() -> ArchiveStore {
        ArchiveStore::new(Tracker::new())
    }

    #[test]
    fn create_append_read() {
        let a = archive();
        a.create_reel("census").unwrap();
        a.append_block("census", b"block-0").unwrap();
        a.append_block("census", b"block-1").unwrap();
        let mut r = a.open("census").unwrap();
        assert_eq!(&*r.read_next().unwrap(), b"block-0");
        assert_eq!(&*r.read_next().unwrap(), b"block-1");
        assert!(r.read_next().is_err());
    }

    #[test]
    fn duplicate_reel_rejected() {
        let a = archive();
        a.create_reel("x").unwrap();
        assert!(matches!(
            a.create_reel("x"),
            Err(StorageError::FileExists(_))
        ));
    }

    #[test]
    fn missing_reel_errors() {
        let a = archive();
        assert!(a.open("nope").is_err());
        assert!(a.append_block("nope", b"x").is_err());
    }

    #[test]
    fn sequential_reads_charge_transfer_only() {
        let a = archive();
        a.create_reel("r").unwrap();
        for i in 0..10u8 {
            a.append_block("r", &[i]).unwrap();
        }
        let mut rd = a.open("r").unwrap();
        while rd.read_next().is_ok() {}
        let s = a.tracker().snapshot();
        assert_eq!(s.archive_block_reads, 10);
        assert_eq!(s.archive_repositioned_blocks, 0);
    }

    #[test]
    fn rewind_charges_distance() {
        let a = archive();
        a.create_reel("r").unwrap();
        for i in 0..10u8 {
            a.append_block("r", &[i]).unwrap();
        }
        let mut rd = a.open("r").unwrap();
        for _ in 0..7 {
            rd.read_next().unwrap();
        }
        rd.rewind();
        assert_eq!(a.tracker().snapshot().archive_repositioned_blocks, 7);
        assert_eq!(rd.position(), 0);
        // Second full pass re-reads everything.
        for _ in 0..10 {
            rd.read_next().unwrap();
        }
        assert_eq!(a.tracker().snapshot().archive_block_reads, 17);
    }

    #[test]
    fn seek_charges_absolute_distance() {
        let a = archive();
        a.create_reel("r").unwrap();
        for i in 0..20u8 {
            a.append_block("r", &[i]).unwrap();
        }
        let mut rd = a.open("r").unwrap();
        rd.seek(15).unwrap();
        rd.seek(5).unwrap();
        assert_eq!(a.tracker().snapshot().archive_repositioned_blocks, 25);
        assert_eq!(&*rd.read_next().unwrap(), &[5]);
        assert!(rd.seek(999).is_err());
    }

    #[test]
    fn reader_is_a_snapshot() {
        let a = archive();
        a.create_reel("r").unwrap();
        a.append_block("r", b"one").unwrap();
        let mut rd = a.open("r").unwrap();
        a.append_block("r", b"two").unwrap();
        assert_eq!(rd.len(), 1, "reader mounted before the append");
        assert_eq!(&*rd.read_next().unwrap(), b"one");
        assert!(rd.read_next().is_err());
        let mut rd2 = a.open("r").unwrap();
        assert_eq!(rd2.len(), 2);
        rd2.seek(1).unwrap();
        assert_eq!(&*rd2.read_next().unwrap(), b"two");
    }

    // ---- fault injection ---------------------------------------------

    fn faulty_archive() -> (ArchiveStore, Arc<FaultInjector>) {
        let inj = Arc::new(FaultInjector::disabled());
        let a = ArchiveStore::with_faults(Tracker::new(), inj.clone(), RetryPolicy::default());
        (a, inj)
    }

    #[test]
    fn transient_read_fault_is_retried() {
        let (a, inj) = faulty_archive();
        a.create_reel("r").unwrap();
        a.append_block("r", b"payload").unwrap();
        inj.script(
            ScriptedFault::new(Device::Archive, FaultKind::Transient)
                .on(IoOp::Read)
                .times(2),
        );
        let mut rd = a.open("r").unwrap();
        assert_eq!(&*rd.read_next().unwrap(), b"payload");
        let s = a.tracker().snapshot();
        assert_eq!(s.retries, 2);
        assert!(s.backoff_units > 0);
    }

    #[test]
    fn corrupted_block_fails_crc() {
        let (a, _inj) = faulty_archive();
        a.create_reel("r").unwrap();
        a.append_block("r", b"good block").unwrap();
        a.append_block("r", b"bad block").unwrap();
        // Flip one bit of the stored copy without updating its CRC.
        let mut reels = a.reels.lock();
        let block = &mut reels.get_mut("r").unwrap().blocks[1];
        let mut data = block.data.to_vec();
        data[1] ^= 1 << 5;
        block.data = Arc::from(data);
        drop(reels);
        let mut rd = a.open("r").unwrap();
        assert!(rd.read_next().is_ok());
        assert!(matches!(
            rd.read_next(),
            Err(StorageError::ChecksumMismatch {
                device: "archive",
                id: 1
            })
        ));
        assert_eq!(a.tracker().snapshot().checksum_failures, 1);
    }

    #[test]
    fn injected_append_corruption_caught_on_read() {
        let (a, inj) = faulty_archive();
        a.create_reel("r").unwrap();
        inj.script(ScriptedFault::new(Device::Archive, FaultKind::Corrupt).on(IoOp::Write));
        a.append_block("r", b"silently damaged").unwrap();
        let mut rd = a.open("r").unwrap();
        assert!(matches!(
            rd.read_next(),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn permanent_fault_models_damaged_tape_stretch() {
        let (a, inj) = faulty_archive();
        a.create_reel("r").unwrap();
        for i in 0..5u8 {
            a.append_block("r", &[i]).unwrap();
        }
        inj.script(ScriptedFault::new(Device::Archive, FaultKind::Permanent).at(2));
        let mut rd = a.open("r").unwrap();
        assert!(rd.read_next().is_ok());
        assert!(rd.read_next().is_ok());
        assert!(matches!(
            rd.read_next(),
            Err(StorageError::PermanentFault { .. })
        ));
        // The head did not advance past the bad block; skip over it.
        rd.seek(3).unwrap();
        assert_eq!(&*rd.read_next().unwrap(), &[3]);
    }

    #[test]
    fn crash_blocks_archive_reads() {
        let (a, inj) = faulty_archive();
        a.create_reel("r").unwrap();
        a.append_block("r", b"x").unwrap();
        let mut rd = a.open("r").unwrap();
        inj.crash_now();
        assert_eq!(rd.read_next(), Err(StorageError::Crashed));
        inj.restart();
        assert!(rd.read_next().is_ok());
    }
}
