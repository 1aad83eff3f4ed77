//! I/O accounting.
//!
//! Every storage-level operation charges counters on an [`IoStats`]
//! instance shared (via `Arc`) by the disk, the archive, and any
//! higher-level operator that wants to report tuple counts. Experiments
//! report these counters alongside wall time so results are
//! machine-independent: the paper's arguments (transposed files,
//! summary caching, view materialization) are all about *I/O volume*,
//! which the counters capture exactly.
//!
//! A [`CostModel`] converts the raw counters into abstract *cost
//! units* that mimic the 1982 hardware balance the paper assumes: disk
//! pages are cheap but not free, seeks cost more than sequential
//! transfers, and tape (archive) access is dominated by serpentine
//! rewinds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ambient::{self, Entry};

/// One monotone event counter.
///
/// The only place in the accounting layer that touches atomic memory
/// orderings. `Relaxed` is sound here and nowhere weaker would do:
/// each counter is independent (no cross-counter invariant is read
/// concurrently), increments are atomic read-modify-writes (no lost
/// updates at any ordering), and exact totals are only asserted after
/// the producing threads have been joined — the join itself is the
/// synchronisation edge that publishes the final values.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` events.
    pub fn add(&self, n: u64) {
        // lint: allow(relaxed-ordering): independent monotone counter; RMW atomicity prevents lost updates and thread join publishes totals
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        // lint: allow(relaxed-ordering): single-counter read; exactness is only claimed for quiesced (joined) producers
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero (between experiment phases, while quiesced).
    pub fn zero(&self) {
        // lint: allow(relaxed-ordering): reset runs between phases with no concurrent producers
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Shared, thread-safe I/O counters.
///
/// Cloning the wrapper [`Tracker`] shares the same counters; call
/// [`IoStats::snapshot`] to read a consistent-enough view (counters are
/// monotone, so a snapshot taken while idle is exact).
#[derive(Debug, Default)]
pub struct IoStats {
    /// Pages fetched from the simulated disk into the buffer pool.
    pub page_reads: Counter,
    /// Dirty pages written back to the simulated disk.
    pub page_writes: Counter,
    /// Non-sequential disk accesses (head movement).
    pub seeks: Counter,
    /// Buffer pool hits (requests satisfied without disk I/O).
    pub pool_hits: Counter,
    /// Blocks read from archive (tape) reels.
    pub archive_block_reads: Counter,
    /// Blocks skipped or rewound over to reposition an archive reel.
    pub archive_repositioned_blocks: Counter,
    /// Tuples produced by relational / statistical operators.
    pub tuples: Counter,
    /// I/O attempts re-issued after a transient fault.
    pub retries: Counter,
    /// Abstract backoff delay units charged by the retry policy.
    pub backoff_units: Counter,
    /// Reads rejected because stored bytes failed CRC verification.
    pub checksum_failures: Counter,
}

/// A point-in-time copy of the counters in [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    /// Pages fetched from disk.
    pub page_reads: u64,
    /// Pages written back to disk.
    pub page_writes: u64,
    /// Non-sequential disk accesses.
    pub seeks: u64,
    /// Buffer pool hits.
    pub pool_hits: u64,
    /// Archive blocks read.
    pub archive_block_reads: u64,
    /// Archive blocks skipped or rewound over.
    pub archive_repositioned_blocks: u64,
    /// Tuples produced by operators.
    pub tuples: u64,
    /// I/O attempts re-issued after a transient fault.
    pub retries: u64,
    /// Abstract backoff delay units charged by the retry policy.
    pub backoff_units: u64,
    /// Reads rejected by CRC verification.
    pub checksum_failures: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier`, for measuring one
    /// operation's contribution.
    #[must_use]
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.page_reads - earlier.page_reads,
            page_writes: self.page_writes - earlier.page_writes,
            seeks: self.seeks - earlier.seeks,
            pool_hits: self.pool_hits - earlier.pool_hits,
            archive_block_reads: self.archive_block_reads - earlier.archive_block_reads,
            archive_repositioned_blocks: self.archive_repositioned_blocks
                - earlier.archive_repositioned_blocks,
            tuples: self.tuples - earlier.tuples,
            retries: self.retries - earlier.retries,
            backoff_units: self.backoff_units - earlier.backoff_units,
            checksum_failures: self.checksum_failures - earlier.checksum_failures,
        }
    }

    /// Total disk page I/Os (reads + writes).
    #[must_use]
    pub fn page_ios(&self) -> u64 {
        self.page_reads + self.page_writes
    }

    /// Counter-wise sum `self + other`, for combining per-worker
    /// deltas from a parallel scan. Integer addition is exact and
    /// associative, so merged snapshots sum to the serial totals
    /// regardless of how the work was partitioned.
    pub fn merge(&mut self, other: &IoSnapshot) {
        self.page_reads += other.page_reads;
        self.page_writes += other.page_writes;
        self.seeks += other.seeks;
        self.pool_hits += other.pool_hits;
        self.archive_block_reads += other.archive_block_reads;
        self.archive_repositioned_blocks += other.archive_repositioned_blocks;
        self.tuples += other.tuples;
        self.retries += other.retries;
        self.backoff_units += other.backoff_units;
        self.checksum_failures += other.checksum_failures;
    }
}

impl IoStats {
    /// Read all counters.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            page_reads: self.page_reads.get(),
            page_writes: self.page_writes.get(),
            seeks: self.seeks.get(),
            pool_hits: self.pool_hits.get(),
            archive_block_reads: self.archive_block_reads.get(),
            archive_repositioned_blocks: self.archive_repositioned_blocks.get(),
            tuples: self.tuples.get(),
            retries: self.retries.get(),
            backoff_units: self.backoff_units.get(),
            checksum_failures: self.checksum_failures.get(),
        }
    }

    /// Reset every counter to zero (between experiment phases).
    pub fn reset(&self) {
        self.page_reads.zero();
        self.page_writes.zero();
        self.seeks.zero();
        self.pool_hits.zero();
        self.archive_block_reads.zero();
        self.archive_repositioned_blocks.zero();
        self.tuples.zero();
        self.retries.zero();
        self.backoff_units.zero();
        self.checksum_failures.zero();
    }
}

/// Cheap-to-clone handle to shared [`IoStats`].
#[derive(Debug, Clone, Default)]
pub struct Tracker(Arc<IoStats>);

/// An RAII marker that routes a copy of this thread's I/O charges into
/// a private [`IoStats`] until dropped. Scopes nest (an inner scope's
/// charges also land in the outer one) and are cheap: entering pushes
/// one `Arc` onto the thread's [`crate::ambient`] stack, which parallel
/// scans re-install in their workers.
///
/// This is what gives per-session I/O accounting on shared storage:
/// the global tracker keeps exact totals for the whole system, while
/// each open snapshot enters a scope around its reads and sees only
/// the I/O *it* incurred — never another analyst's.
#[derive(Debug)]
pub struct IoScope {
    stats: Arc<IoStats>,
}

impl IoScope {
    /// Enter a scope on the current thread: until the returned guard
    /// drops, every charge made on this thread is mirrored into
    /// `stats`.
    #[must_use]
    pub fn enter(stats: Arc<IoStats>) -> IoScope {
        ambient::push(Entry::Io(Arc::clone(&stats)));
        IoScope { stats }
    }

    /// The scope's private stats sink.
    #[must_use]
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }
}

impl Drop for IoScope {
    fn drop(&mut self) {
        ambient::remove(|e| matches!(e, Entry::Io(s) if Arc::ptr_eq(s, &self.stats)));
    }
}

impl Tracker {
    /// Create a fresh tracker with zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one charge to the shared counters and mirror it into
    /// every [`IoScope`] active on the current thread.
    fn charge(&self, f: impl Fn(&IoStats)) {
        f(&self.0);
        ambient::with_entries(|entries| {
            for entry in entries {
                if let Entry::Io(scope) = entry {
                    f(scope);
                }
            }
        });
    }

    /// The underlying shared stats.
    #[must_use]
    pub fn stats(&self) -> &IoStats {
        &self.0
    }

    /// Read all counters.
    #[must_use]
    pub fn snapshot(&self) -> IoSnapshot {
        self.0.snapshot()
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.0.reset();
    }

    /// Charge one disk page read.
    pub fn count_page_read(&self) {
        self.charge(|s| s.page_reads.add(1));
    }
    /// Charge one disk page write.
    pub fn count_page_write(&self) {
        self.charge(|s| s.page_writes.add(1));
    }
    /// Charge one disk seek.
    pub fn count_seek(&self) {
        self.charge(|s| s.seeks.add(1));
    }
    /// Charge one buffer-pool hit (no disk I/O).
    pub fn count_pool_hit(&self) {
        self.charge(|s| s.pool_hits.add(1));
    }
    /// Charge one archive block transfer.
    pub fn count_archive_read(&self) {
        self.charge(|s| s.archive_block_reads.add(1));
    }
    /// Charge `blocks` of archive repositioning (skip/rewind).
    pub fn count_archive_reposition(&self, blocks: u64) {
        self.charge(|s| s.archive_repositioned_blocks.add(blocks));
    }
    /// Charge one retried I/O attempt.
    pub fn count_retry(&self) {
        self.charge(|s| s.retries.add(1));
    }
    /// Charge `units` of simulated backoff delay before a retry.
    pub fn count_backoff(&self, units: u64) {
        self.charge(|s| s.backoff_units.add(units));
    }
    /// Charge one CRC verification failure.
    pub fn count_checksum_failure(&self) {
        self.charge(|s| s.checksum_failures.add(1));
    }

    /// Add a snapshot's counts into the shared counters — used when a
    /// parallel worker accounted its I/O on a private tracker and the
    /// coordinator folds the per-worker deltas back in. The folded
    /// work belongs to the calling session, so active scopes on this
    /// thread are charged too.
    pub fn absorb(&self, s: &IoSnapshot) {
        self.charge(|t| {
            t.page_reads.add(s.page_reads);
            t.page_writes.add(s.page_writes);
            t.seeks.add(s.seeks);
            t.pool_hits.add(s.pool_hits);
            t.archive_block_reads.add(s.archive_block_reads);
            t.archive_repositioned_blocks
                .add(s.archive_repositioned_blocks);
            t.tuples.add(s.tuples);
            t.retries.add(s.retries);
            t.backoff_units.add(s.backoff_units);
            t.checksum_failures.add(s.checksum_failures);
        });
    }
}

/// Converts raw I/O counters into abstract cost units.
///
/// The defaults model the storage hierarchy the paper assumes: disk
/// page transfers are the unit, a seek costs several transfers, a tape
/// block transfer is comparable to a disk page but *repositioning* the
/// reel is very expensive — which is exactly why the paper insists
/// views be materialized onto disk rather than re-read from tape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of transferring one disk page.
    pub page_read: f64,
    /// Cost of writing one disk page.
    pub page_write: f64,
    /// Cost of one disk seek (non-sequential access).
    pub seek: f64,
    /// Cost of reading one archive (tape) block in sequence.
    pub archive_block_read: f64,
    /// Cost of skipping / rewinding over one archive block.
    pub archive_reposition_block: f64,
    /// Cost of one backoff delay unit charged by the retry policy
    /// (the failed attempt's transfer is already counted separately).
    pub backoff_unit: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            page_read: 1.0,
            page_write: 1.0,
            seek: 4.0,
            archive_block_read: 1.5,
            archive_reposition_block: 0.5,
            backoff_unit: 0.25,
        }
    }
}

impl CostModel {
    /// Total abstract cost of a counter snapshot under this model.
    #[must_use]
    pub fn cost(&self, s: &IoSnapshot) -> f64 {
        s.page_reads as f64 * self.page_read
            + s.page_writes as f64 * self.page_write
            + s.seeks as f64 * self.seek
            + s.archive_block_reads as f64 * self.archive_block_read
            + s.archive_repositioned_blocks as f64 * self.archive_reposition_block
            + s.backoff_units as f64 * self.backoff_unit
    }

    /// The same cost in integer **milli-units** (1/1000 of a cost
    /// unit), computed with integer arithmetic only. Unlike the float
    /// form, milli-costs are exact and associative: charging a tenant
    /// request-by-request sums to precisely the cost of the merged
    /// counters, which is the property the serving layer's
    /// token-bucket quota accounting asserts. Weights are rounded to
    /// the nearest milli-unit once, up front.
    #[must_use]
    pub fn cost_milli(&self, s: &IoSnapshot) -> u64 {
        fn milli(w: f64) -> u64 {
            (w * 1000.0).round().max(0.0) as u64
        }
        s.page_reads * milli(self.page_read)
            + s.page_writes * milli(self.page_write)
            + s.seeks * milli(self.seek)
            + s.archive_block_reads * milli(self.archive_block_read)
            + s.archive_repositioned_blocks * milli(self.archive_reposition_block)
            + s.backoff_units * milli(self.backoff_unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let t = Tracker::new();
        t.count_page_read();
        t.count_page_read();
        t.count_page_write();
        t.count_seek();
        t.count_pool_hit();
        t.count_archive_read();
        t.count_archive_reposition(10);
        t.charge(|s| s.tuples.add(5));
        let s = t.snapshot();
        assert_eq!(s.page_reads, 2);
        assert_eq!(s.page_writes, 1);
        assert_eq!(s.seeks, 1);
        assert_eq!(s.pool_hits, 1);
        assert_eq!(s.archive_block_reads, 1);
        assert_eq!(s.archive_repositioned_blocks, 10);
        assert_eq!(s.tuples, 5);
        assert_eq!(s.page_ios(), 3);
    }

    #[test]
    fn since_subtracts() {
        let t = Tracker::new();
        t.count_page_read();
        let before = t.snapshot();
        t.count_page_read();
        t.count_page_read();
        let after = t.snapshot();
        let d = after.since(&before);
        assert_eq!(d.page_reads, 2);
        assert_eq!(d.page_writes, 0);
    }

    #[test]
    fn clones_share_counters() {
        let t = Tracker::new();
        let t2 = t.clone();
        t2.count_seek();
        assert_eq!(t.snapshot().seeks, 1);
    }

    #[test]
    fn reset_zeroes() {
        let t = Tracker::new();
        t.count_page_read();
        t.reset();
        assert_eq!(t.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn cost_model_weights() {
        let m = CostModel::default();
        let s = IoSnapshot {
            page_reads: 10,
            page_writes: 2,
            seeks: 1,
            pool_hits: 100, // free
            archive_block_reads: 4,
            archive_repositioned_blocks: 8,
            tuples: 0,
            retries: 3, // free in themselves; the re-issued I/O is counted
            backoff_units: 8,
            checksum_failures: 1, // free: detection costs nothing extra
        };
        let expected = 10.0 + 2.0 + 4.0 + 4.0 * 1.5 + 8.0 * 0.5 + 8.0 * 0.25;
        assert!((m.cost(&s) - expected).abs() < 1e-12);
        // The integer form agrees with the float form at default
        // weights (all of which are exact multiples of a milli-unit).
        assert_eq!(m.cost_milli(&s), (expected * 1000.0).round() as u64);
    }

    #[test]
    fn milli_cost_is_exactly_associative() {
        // Charging piecewise must sum to exactly the cost of the
        // merged counters — the serving layer's quota ledgers assert
        // this equality across thousands of requests.
        let m = CostModel::default();
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut merged = IoSnapshot::default();
        let mut piecewise = 0u64;
        for _ in 0..1000 {
            let s = IoSnapshot {
                page_reads: next() % 50,
                page_writes: next() % 20,
                seeks: next() % 10,
                pool_hits: next() % 100,
                archive_block_reads: next() % 8,
                archive_repositioned_blocks: next() % 30,
                tuples: next() % 1000,
                retries: next() % 4,
                backoff_units: next() % 12,
                checksum_failures: 0,
            };
            piecewise += m.cost_milli(&s);
            merged.merge(&s);
        }
        assert_eq!(piecewise, m.cost_milli(&merged));
    }

    #[test]
    fn snapshot_merge_and_absorb_sum_exactly() {
        let a = IoSnapshot {
            page_reads: 3,
            seeks: 1,
            tuples: 10,
            ..IoSnapshot::default()
        };
        let b = IoSnapshot {
            page_reads: 4,
            page_writes: 2,
            tuples: 5,
            retries: 1,
            ..IoSnapshot::default()
        };
        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum.page_reads, 7);
        assert_eq!(sum.page_writes, 2);
        assert_eq!(sum.seeks, 1);
        assert_eq!(sum.tuples, 15);
        assert_eq!(sum.retries, 1);
        let t = Tracker::new();
        t.count_pool_hit();
        t.absorb(&sum);
        let s = t.snapshot();
        assert_eq!(s.page_reads, 7);
        assert_eq!(s.pool_hits, 1);
        assert_eq!(s.tuples, 15);
    }

    #[test]
    fn concurrent_hammer_counts_exactly() {
        // Many threads hammering one shared tracker, plus per-worker
        // private trackers whose snapshots are merged: both paths must
        // agree with the arithmetic total exactly.
        const THREADS: u64 = 8;
        const OPS: u64 = 10_000;
        let shared = Tracker::new();
        let merged = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let shared = shared.clone();
                    scope.spawn(move || {
                        let private = Tracker::new();
                        for _ in 0..OPS {
                            shared.count_page_read();
                            shared.charge(|s| s.tuples.add(2));
                            private.count_page_read();
                            private.charge(|s| s.tuples.add(2));
                        }
                        private.snapshot()
                    })
                })
                .collect();
            let mut merged = IoSnapshot::default();
            for h in handles {
                merged.merge(&h.join().expect("hammer worker panicked"));
            }
            merged
        });
        let s = shared.snapshot();
        assert_eq!(s.page_reads, THREADS * OPS);
        assert_eq!(s.tuples, 2 * THREADS * OPS);
        assert_eq!(merged, s);
        // Absorbing the merged per-worker deltas doubles the shared
        // counters — exact integer accounting end to end.
        shared.absorb(&merged);
        assert_eq!(shared.snapshot().page_reads, 2 * THREADS * OPS);
    }

    #[test]
    fn scope_mirrors_only_this_threads_charges() {
        let t = Tracker::new();
        t.count_page_read(); // before the scope — not mirrored
        let scope = IoScope::enter(Arc::new(IoStats::default()));
        t.count_page_read();
        t.charge(|s| s.tuples.add(3));
        t.absorb(&IoSnapshot {
            seeks: 2,
            ..IoSnapshot::default()
        });
        let scoped = scope.stats().snapshot();
        drop(scope);
        t.count_page_read(); // after the scope — not mirrored
        assert_eq!(scoped.page_reads, 1);
        assert_eq!(scoped.tuples, 3);
        assert_eq!(scoped.seeks, 2);
        // Global totals stay exact regardless of scoping.
        let s = t.snapshot();
        assert_eq!(s.page_reads, 3);
        assert_eq!(s.tuples, 3);
        assert_eq!(s.seeks, 2);
    }

    #[test]
    fn nested_scopes_both_see_inner_charges() {
        let t = Tracker::new();
        let outer = IoScope::enter(Arc::new(IoStats::default()));
        t.count_seek();
        let inner = IoScope::enter(Arc::new(IoStats::default()));
        t.count_page_write();
        assert_eq!(inner.stats().snapshot().page_writes, 1);
        assert_eq!(inner.stats().snapshot().seeks, 0);
        drop(inner);
        t.count_pool_hit();
        let o = outer.stats().snapshot();
        assert_eq!(o.seeks, 1);
        assert_eq!(o.page_writes, 1);
        assert_eq!(o.pool_hits, 1);
    }

    #[test]
    fn out_of_order_drop_removes_the_right_scope() {
        let t = Tracker::new();
        let a = IoScope::enter(Arc::new(IoStats::default()));
        let b = IoScope::enter(Arc::new(IoStats::default()));
        // Drop the *outer* guard first; the inner one must keep
        // receiving charges.
        drop(a);
        t.count_page_read();
        assert_eq!(b.stats().snapshot().page_reads, 1);
        drop(b);
        t.count_page_read();
        assert_eq!(t.snapshot().page_reads, 2);
    }

    #[test]
    fn scoped_hammer_attributes_io_per_session_exactly() {
        // Eight analyst sessions on one shared tracker, each scoping
        // its own thread's work: every session's scope must sum to
        // exactly its own operations, and the shared totals to the
        // grand total — no charge lost, none double-attributed.
        const THREADS: u64 = 8;
        const OPS: u64 = 10_000;
        let shared = Tracker::new();
        let per_session = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|i| {
                    let shared = shared.clone();
                    scope.spawn(move || {
                        let guard = IoScope::enter(Arc::new(IoStats::default()));
                        for _ in 0..OPS {
                            shared.count_page_read();
                            shared.charge(|s| s.tuples.add(i + 1));
                        }
                        let s = guard.stats().snapshot();
                        (i, s)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scoped hammer worker panicked"))
                .collect::<Vec<_>>()
        });
        for (i, s) in &per_session {
            assert_eq!(s.page_reads, OPS, "session {i} page reads");
            assert_eq!(s.tuples, (i + 1) * OPS, "session {i} tuples");
        }
        let total = shared.snapshot();
        assert_eq!(total.page_reads, THREADS * OPS);
        let tuple_sum: u64 = (1..=THREADS).map(|k| k * OPS).sum();
        assert_eq!(total.tuples, tuple_sum);
    }

    #[test]
    fn retry_counters_roundtrip() {
        let t = Tracker::new();
        t.count_retry();
        t.count_retry();
        t.count_backoff(3);
        t.count_checksum_failure();
        let s = t.snapshot();
        assert_eq!(s.retries, 2);
        assert_eq!(s.backoff_units, 3);
        assert_eq!(s.checksum_failures, 1);
        t.reset();
        assert_eq!(t.snapshot(), IoSnapshot::default());
    }
}
