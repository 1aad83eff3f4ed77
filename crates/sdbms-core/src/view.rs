//! Concrete views and their access-pattern bookkeeping.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use sdbms_columnar::{Layout, TableStore};
use sdbms_storage::{BufferPool, PageId};
use sdbms_summary::{IntentLog, SummaryDb};
use sdbms_txn::EpochRegistry;

/// Counts of how a view has been accessed, driving the §2.3
/// "intelligent access methods that interpret reference patterns to
/// the view and dynamically reorganize the storage structures".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessTracker {
    /// Whole-column (statistical) reads.
    pub column_reads: u64,
    /// Whole-row (informational) reads.
    pub row_reads: u64,
}

impl AccessTracker {
    /// The layout this access pattern favors, if the evidence is
    /// strong (at least 10 accesses and a 3:1 skew); `None` = no
    /// recommendation.
    #[must_use]
    pub fn recommended_layout(&self) -> Option<Layout> {
        let total = self.column_reads + self.row_reads;
        if total < 10 {
            return None;
        }
        if self.column_reads >= 3 * self.row_reads.max(1) {
            Some(Layout::Transposed)
        } else if self.row_reads >= 3 * self.column_reads.max(1) {
            Some(Layout::Row)
        } else {
            None
        }
    }
}

/// A materialized (concrete) view: on-disk data + its private Summary
/// Database (§3.2: "Associated with each view is a Summary Database").
pub struct ConcreteView {
    /// View name (catalog key).
    pub name: String,
    /// Owning analyst.
    pub owner: String,
    /// The on-disk data in its current layout: the installed version,
    /// which no writer mutates. `Send + Sync` so the morsel-driven
    /// executor can scan it from worker threads, and behind an `Arc` so
    /// a [`crate::Snapshot`] can pin the version it opened against
    /// while later writers install successors.
    pub store: Arc<dyn TableStore + Send + Sync>,
    /// Monotone version counter, bumped every time a new store is
    /// installed — by every writer. A snapshot records the version it
    /// pinned.
    pub version: u64,
    /// Current layout.
    pub layout: Layout,
    /// The view's Summary Database.
    pub summary: SummaryDb,
    /// Access-pattern counters.
    pub tracker: AccessTracker,
    /// Derived columns currently marked out-of-date (the
    /// [`sdbms_management::DerivedRule::MarkStale`] rule).
    pub stale_columns: BTreeSet<String>,
    /// Write-ahead intent log, present when the DBMS runs under
    /// [`crate::DurabilityPolicy::CrashConsistent`]. `None` means the
    /// view's summaries are volatile (the historical default).
    pub wal: Option<IntentLog>,
    /// The DBMS-wide epoch registry, for retiring replaced store
    /// versions only after the last pinned snapshot drains.
    pub(crate) epochs: Arc<EpochRegistry>,
    /// The buffer pool, so retired versions can return their pages.
    pub(crate) pool: Arc<BufferPool>,
}

impl ConcreteView {
    /// Install `store`, a successor of the current version built and
    /// flushed by a writer, as the view's current version: one pointer
    /// swap and a version bump. The displaced version is retired
    /// through the epoch registry: once every snapshot pinned before
    /// the install has dropped, the pages it has and `store` does not
    /// (the shared pages `store` copied, and all of them when `store`
    /// was built afresh) return to the free list.
    pub fn install_store(&mut self, store: Arc<dyn TableStore + Send + Sync>) {
        // The one place a view's store is replaced; every writer routes here.
        let freed = only_in(&*self.store, &*store);
        let old = std::mem::replace(&mut self.store, store);
        self.version += 1;
        let pool = Arc::clone(&self.pool);
        self.epochs.retire(move || {
            drop(old);
            free(&pool, freed);
        });
    }

    /// Drop `next`, a successor of the current version that a failed
    /// writer will not install, and free every page it has that the
    /// current version does not: the pages it copied or added, which
    /// no reader has seen.
    pub(crate) fn discard(&self, next: Box<dyn TableStore + Send + Sync>) {
        let fresh = only_in(&*next, &*self.store);
        drop(next);
        free(&self.pool, fresh);
    }
}

/// The pages of `a`, data and zone maps, that `b` does not have.
fn only_in(a: &(dyn TableStore + Send + Sync), b: &(dyn TableStore + Send + Sync)) -> Vec<PageId> {
    let pages = |s: &(dyn TableStore + Send + Sync)| {
        let zones = s.zone_map_page_ids();
        s.data_page_ids().into_iter().chain(zones)
    };
    let kept: HashSet<PageId> = pages(b).collect();
    pages(a).filter(|p| !kept.contains(p)).collect()
}

/// Return `pages` to the free list. Best-effort: a page that cannot be
/// freed right now is merely leaked, never reused while referenced.
fn free(pool: &BufferPool, pages: Vec<PageId>) {
    for pid in pages {
        let _ = pool.deallocate(pid);
    }
}

impl std::fmt::Debug for ConcreteView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcreteView")
            .field("name", &self.name)
            .field("owner", &self.owner)
            .field("rows", &self.store.len())
            .field("layout", &self.layout)
            .field("cached", &self.summary.len())
            .finish()
    }
}

/// What an update statement did (returned by
/// [`crate::dbms::StatDbms::update_where`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UpdateReport {
    /// Rows matching the predicate.
    pub rows_matched: usize,
    /// Cells actually changed (per assignment).
    pub cells_changed: usize,
    /// Summary Database maintenance work, summed over attributes.
    pub maintenance: sdbms_summary::MaintenanceReport,
    /// Derived columns touched, with the rule cost class applied.
    pub derived_updates: Vec<(String, &'static str)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_recommendations() {
        let mut t = AccessTracker::default();
        assert_eq!(t.recommended_layout(), None, "no evidence yet");
        t.column_reads = 30;
        t.row_reads = 2;
        assert_eq!(t.recommended_layout(), Some(Layout::Transposed));
        let t = AccessTracker {
            column_reads: 2,
            row_reads: 40,
        };
        assert_eq!(t.recommended_layout(), Some(Layout::Row));
        let t = AccessTracker {
            column_reads: 10,
            row_reads: 12,
        };
        assert_eq!(t.recommended_layout(), None, "mixed workload");
        let t = AccessTracker {
            column_reads: 12,
            row_reads: 0,
        };
        assert_eq!(t.recommended_layout(), Some(Layout::Transposed));
    }
}
