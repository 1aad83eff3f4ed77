//! Error type for the storage layer.

use std::fmt;

/// Context of a [`StorageError::Corrupt`]: what check failed, and —
/// when the detecting layer knows — which page the damage sits on.
///
/// Construction sites deep in the storage layer only know the reason;
/// a caller that knows the page adds it on the way up via
/// [`StorageError::at_page`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptDetail {
    /// The structural sanity check that failed.
    pub reason: &'static str,
    /// Page id (disk) or block index (archive) of the damaged bytes.
    pub page: Option<u64>,
}

impl CorruptDetail {
    /// Detail with only the failed check known.
    #[must_use]
    pub fn new(reason: &'static str) -> Self {
        CorruptDetail { reason, page: None }
    }
}

impl fmt::Display for CorruptDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.reason)?;
        if let Some(p) = self.page {
            write!(f, " [page {p}]")?;
        }
        Ok(())
    }
}

/// Errors raised by the storage substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id referenced a page that was never allocated (or was freed).
    InvalidPageId(u32),
    /// The buffer pool has no evictable frame (every frame is pinned).
    PoolExhausted,
    /// A record id referenced a slot that does not exist or was deleted.
    InvalidRid {
        /// Page component of the record id.
        page: u32,
        /// Slot component of the record id.
        slot: u16,
    },
    /// A record is too large to ever fit on a single page.
    RecordTooLarge {
        /// Size of the rejected record.
        len: usize,
        /// Largest storable record.
        max: usize,
    },
    /// A key is too large for a B+tree node.
    KeyTooLarge {
        /// Size of the rejected key.
        len: usize,
        /// Largest permitted key.
        max: usize,
    },
    /// An archive reel with this name does not exist.
    NoSuchReel(String),
    /// Attempted to read past the end of an archive reel.
    EndOfReel {
        /// Reel name.
        reel: String,
        /// Block position of the failed read.
        position: usize,
    },
    /// A named file does not exist in the catalog.
    NoSuchFile(String),
    /// A file with this name already exists in the catalog.
    FileExists(String),
    /// On-page bytes failed a structural sanity check (corruption).
    /// The detail names the failed check and, where known, the page.
    Corrupt(CorruptDetail),
    /// An injected transient fault: the operation failed but a retry
    /// may succeed. Normally retried inside the storage layer (see
    /// `retry`); only surfaces when retries are disabled.
    TransientFault {
        /// Device name ("disk" or "archive").
        device: &'static str,
        /// Page id or block index.
        id: u64,
    },
    /// The target block is permanently lost (simulated media damage).
    PermanentFault {
        /// Device name ("disk" or "archive").
        device: &'static str,
        /// Page id or block index.
        id: u64,
    },
    /// A transient fault persisted through every permitted retry.
    RetriesExhausted {
        /// Device name ("disk" or "archive").
        device: &'static str,
        /// Page id or block index.
        id: u64,
        /// Attempts made, including the first.
        attempts: u32,
    },
    /// Stored bytes do not match their stored CRC32 (bit rot detected).
    ChecksumMismatch {
        /// Device name ("disk" or "archive").
        device: &'static str,
        /// Page id or block index.
        id: u64,
    },
    /// The simulated storage hierarchy has crashed; every operation
    /// fails until the environment is restarted.
    Crashed,
    /// The request driving this I/O was cancelled (see
    /// [`crate::budget::CancelToken`]). Not a fault and not a crash:
    /// the storage state is intact, the caller just stopped wanting
    /// the answer. Upper layers abort cleanly and surface the typed
    /// error instead of a partial result.
    Cancelled,
    /// The request driving this I/O ran out of deadline budget (see
    /// [`crate::budget::CancelToken`]). Like [`StorageError::Cancelled`],
    /// a clean cooperative stop — not a fault, not a crash.
    DeadlineExceeded,
    /// A lock guarding shared storage state was poisoned by a panic in
    /// another thread.
    LockPoisoned(&'static str),
}

impl StorageError {
    /// A corruption error carrying only the failed check; the page is
    /// attached later via [`StorageError::at_page`].
    #[must_use]
    pub fn corrupt(reason: &'static str) -> Self {
        StorageError::Corrupt(CorruptDetail::new(reason))
    }

    /// Attach the damaged page id to a `Corrupt` error. A no-op on
    /// other variants, and never overwrites a page already recorded by
    /// a deeper layer (the first attribution is the most precise).
    #[must_use]
    pub fn at_page(self, page: impl Into<u64>) -> Self {
        match self {
            StorageError::Corrupt(mut d) => {
                if d.page.is_none() {
                    d.page = Some(page.into());
                }
                StorageError::Corrupt(d)
            }
            other => other,
        }
    }

    /// True only for the simulated-crash error: callers must stop and
    /// wait for a restart rather than degrade around it.
    #[must_use]
    pub fn is_crash(&self) -> bool {
        matches!(self, StorageError::Crashed)
    }

    /// True for the cooperative-stop errors raised when a request's
    /// budget trips ([`StorageError::Cancelled`] /
    /// [`StorageError::DeadlineExceeded`]). Deliberately *not* a fault:
    /// nothing is wrong with the storage, so quarantine, repair, and
    /// circuit-breaker machinery must not react to them — and not part
    /// of [`StorageError::is_crash`], so a cancelled batch commit takes
    /// the clean-abort path rather than leaving a pending intent.
    #[must_use]
    pub fn is_budget(&self) -> bool {
        matches!(
            self,
            StorageError::Cancelled | StorageError::DeadlineExceeded
        )
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::InvalidPageId(p) => write!(f, "invalid page id {p}"),
            StorageError::PoolExhausted => {
                write!(f, "buffer pool exhausted: all frames pinned")
            }
            StorageError::InvalidRid { page, slot } => {
                write!(f, "invalid record id (page {page}, slot {slot})")
            }
            StorageError::RecordTooLarge { len, max } => {
                write!(f, "record of {len} bytes exceeds page capacity {max}")
            }
            StorageError::KeyTooLarge { len, max } => {
                write!(f, "key of {len} bytes exceeds B+tree limit {max}")
            }
            StorageError::NoSuchReel(name) => write!(f, "no archive reel named {name:?}"),
            StorageError::EndOfReel { reel, position } => {
                write!(f, "read past end of reel {reel:?} at block {position}")
            }
            StorageError::NoSuchFile(name) => write!(f, "no file named {name:?}"),
            StorageError::FileExists(name) => write!(f, "file {name:?} already exists"),
            StorageError::Corrupt(detail) => {
                write!(f, "corrupt page structure: {detail}")
            }
            StorageError::TransientFault { device, id } => {
                write!(f, "transient {device} fault at {id}")
            }
            StorageError::PermanentFault { device, id } => {
                write!(f, "{device} block {id} permanently lost")
            }
            StorageError::RetriesExhausted {
                device,
                id,
                attempts,
            } => {
                write!(
                    f,
                    "{device} fault at {id} persisted through {attempts} attempts"
                )
            }
            StorageError::ChecksumMismatch { device, id } => {
                write!(f, "checksum mismatch on {device} block {id}")
            }
            StorageError::Crashed => write!(f, "simulated storage crash in effect"),
            StorageError::Cancelled => write!(f, "request cancelled"),
            StorageError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            StorageError::LockPoisoned(what) => {
                write!(f, "lock poisoned: {what}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenient result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
