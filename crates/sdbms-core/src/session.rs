//! Multi-analyst sessions: pinned snapshot reads and transactional
//! update batches.
//!
//! The paper's workload is several analysts sharing long-lived cleaned
//! views. This module gives each of them a safe seat:
//!
//! - [`Snapshot`] — a read session pinning one view *version*.
//!   Reads never block and never observe a concurrent batch, because a
//!   commit installs a brand-new store on fresh pages and retires the
//!   old one through the epoch registry only after the last pinned
//!   snapshot drains. Each snapshot accounts the I/O *it* incurs on a
//!   private counter set (scoped through [`sdbms_storage::IoScope`]),
//!   so shared-tracker totals stay exact while every analyst sees
//!   their own bill.
//! - [`StatDbms::begin_batch`] / [`StatDbms::commit_batch`] — a writer
//!   session staging [`BatchOp`]s against a view, holding the view's
//!   exclusive lock from begin to commit/abort. Commit is shadowed:
//!   each staged op is planned and applied against a copy-on-write
//!   clone through the one edit pipeline (`edit.rs` — the same
//!   prologue, planner, applier and epilogue as every in-place
//!   writer), the clone is made durable, and only then is it installed
//!   in memory — one pointer swap, so readers see the whole batch or
//!   none of it — and the batch's records drive the epilogue: history,
//!   stale marks for triggered derived columns, Summary-DB maintenance
//!   per entry. Under
//!   [`crate::DurabilityPolicy::CrashConsistent`] the commit runs
//!   inside a durable `Txn` WAL intent; a crash at any point recovers
//!   to the full pre-batch or full post-batch state, idempotently.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, Rank};

use sdbms_columnar::TableStore;
use sdbms_data::{schema::Schema, value::Value};
use sdbms_relational::{Expr, Predicate};
use sdbms_storage::{BudgetScope, CancelToken, IoScope, IoSnapshot, IoStats};
use sdbms_summary::{ComputeSource, StatFunction, SummaryDb, SummaryValue};
use sdbms_txn::{EpochPin, LockGuard};

use crate::dbms::{error_is_crash, summarizable, StatDbms};
use crate::edit::{apply, Derived, Plan, WriteIntent};
use crate::error::{CoreError, Result};
use crate::view::UpdateReport;

/// Identifies one open update batch (also its lock-table session id).
pub type BatchId = u64;

/// One staged operation inside an update batch. Nothing touches the
/// view until [`StatDbms::commit_batch`]; staging is pure bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOp {
    /// Assign expressions to every row matching a predicate (the batch
    /// form of [`StatDbms::update_where`]).
    UpdateWhere {
        /// Row filter.
        predicate: Predicate,
        /// `(attribute, expression)` assignments.
        assignments: Vec<(String, Expr)>,
    },
    /// Overwrite one cell.
    SetCell {
        /// Row index.
        row: usize,
        /// Attribute name.
        attribute: String,
        /// The new value.
        value: Value,
    },
    /// Append one row (schema order).
    AppendRow {
        /// The row's values.
        values: Vec<Value>,
    },
}

impl BatchOp {
    /// The statement `update_where(predicate, assignments)` makes.
    pub(crate) fn update_where(predicate: &Predicate, assignments: &[(&str, Expr)]) -> Self {
        let own = |(a, e): &(&str, Expr)| ((*a).to_string(), e.clone());
        BatchOp::UpdateWhere {
            predicate: predicate.clone(),
            assignments: assignments.iter().map(own).collect(),
        }
    }
}

/// A writer session: staged ops plus the view lock held from begin to
/// commit/abort (the guard's drop releases it).
pub(crate) struct PendingBatch {
    pub(crate) view: String,
    pub(crate) ops: Vec<BatchOp>,
    guard: LockGuard,
}

/// A pinned, non-blocking read session on one version of one view.
///
/// The snapshot owns an `Arc` to the exact store it opened against and
/// an epoch pin that keeps that version's pages from being reclaimed.
/// Every read goes straight to the pinned store — concurrent batch
/// commits, scrubs, and repairs are invisible until the analyst opens
/// a fresh snapshot. Results are memoized per `(attribute, function)`,
/// mirroring the Summary-DB serve-from-cache behavior at session
/// scope.
pub struct Snapshot {
    view: String,
    version: u64,
    store: Arc<dyn TableStore + Send + Sync>,
    stats: Arc<IoStats>,
    memo: Mutex<HashMap<(String, String), SummaryValue>>,
    _pin: EpochPin,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("view", &self.view)
            .field("version", &self.version)
            .field("rows", &self.store.len())
            .finish()
    }
}

impl Snapshot {
    /// The view this snapshot pinned.
    #[must_use]
    pub fn view(&self) -> &str {
        &self.view
    }

    /// The store version pinned at open time.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Rows in the pinned version.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the pinned version holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The pinned version's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        self.store.schema()
    }

    /// One full column of the pinned version. I/O is charged to this
    /// snapshot's private counters as well as the shared tracker.
    pub fn column(&self, attribute: &str) -> Result<Vec<Value>> {
        let _scope = IoScope::enter(Arc::clone(&self.stats));
        Ok(self.store.read_column(attribute)?)
    }

    /// One full row of the pinned version.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        let _scope = IoScope::enter(Arc::clone(&self.stats));
        Ok(self.store.read_row(row)?)
    }

    /// Compute `function(attribute)` on the pinned version. The first
    /// call per `(attribute, function)` scans the column
    /// ([`ComputeSource::Computed`]); repeats serve the memoized value
    /// ([`ComputeSource::Cache`]) with no I/O. The memo never outlives
    /// the snapshot, so it can never serve a value from another
    /// version.
    pub fn compute(
        &self,
        attribute: &str,
        function: &StatFunction,
    ) -> Result<(SummaryValue, ComputeSource)> {
        let key = (attribute.to_string(), function.to_string());
        if let Some(v) = self.memo.lock().get(&key) {
            return Ok((v.clone(), ComputeSource::Cache));
        }
        let value = self.compute_uncached(attribute, function)?;
        self.memo.lock().insert(key, value.clone());
        Ok((value, ComputeSource::Computed))
    }

    /// [`Snapshot::compute`] past the memo: the engine's miss path on
    /// the pinned version — metadata rule, one batch scan feeding the
    /// accumulators `function` reads, the one evaluator. Scans run on
    /// the calling thread: the callers that share a snapshot (the
    /// serving layer's workers) already parallelise across requests.
    pub fn compute_uncached(
        &self,
        attribute: &str,
        function: &StatFunction,
    ) -> Result<SummaryValue> {
        let attr = summarizable(self.store.schema(), attribute, function)?;
        let _scope = IoScope::enter(Arc::clone(&self.stats));
        let profile = sdbms_exec::profile_table_column_for(
            &*self.store,
            &attr.name,
            &sdbms_exec::ExecConfig::serial(),
            function.accumulators(),
        )?;
        Ok(function.answer(&profile)?)
    }

    /// The I/O this snapshot has incurred: only reads made through
    /// this session, never another analyst's.
    #[must_use]
    pub fn io(&self) -> IoSnapshot {
        self.stats.snapshot()
    }
}

impl StatDbms {
    // ---- snapshots -------------------------------------------------------

    /// Open a read snapshot of a view's current version. Never blocks
    /// and takes no lock: the returned [`Snapshot`] shares the live
    /// store `Arc` and pins the epoch, so concurrent batch commits
    /// neither wait for it nor disturb it.
    pub fn snapshot(&self, view: &str) -> Result<Snapshot> {
        let v = self.view(view)?;
        Ok(Snapshot {
            view: v.name.clone(),
            version: v.version,
            store: Arc::clone(&v.store),
            stats: Arc::new(IoStats::default()),
            memo: Mutex::new(Rank::SnapshotMemo, HashMap::new()),
            _pin: self.epochs.pin(),
        })
    }

    /// Live snapshot pins across the whole DBMS (diagnostics).
    #[must_use]
    pub fn pinned_snapshots(&self) -> usize {
        self.epochs.pinned()
    }

    /// The current global epoch and the oldest still-pinned epoch, if
    /// any. Their difference is the *pin lag* — how far behind the
    /// slowest reader sits, and therefore how much superseded store
    /// state reclamation must retain. The serving layer reports this
    /// in its metrics.
    #[must_use]
    pub fn epoch_status(&self) -> (u64, Option<u64>) {
        (self.epochs.epoch(), self.epochs.oldest_pinned())
    }

    /// A view's current store version, without pinning a snapshot.
    /// The serving layer polls this on every request to decide whether
    /// a session's pinned snapshot is still current.
    pub fn view_version(&self, view: &str) -> Result<u64> {
        Ok(self.view(view)?.version)
    }

    // ---- update batches --------------------------------------------------

    /// Open a transactional update batch on a view, taking its
    /// exclusive lock. The lock is held until [`StatDbms::commit_batch`]
    /// or [`StatDbms::abort_batch`]; a concurrent batch, legacy
    /// update, scrub, or repair on the same view surfaces as
    /// [`CoreError::Lock`] immediately (acquisition never blocks).
    pub fn begin_batch(&mut self, view: &str) -> Result<BatchId> {
        self.view(view)?;
        let session = self.locks.session();
        let guard = self.locks.acquire(session, &[view])?;
        self.batches.insert(
            session,
            PendingBatch {
                view: view.to_string(),
                ops: Vec::new(),
                guard,
            },
        );
        Ok(session)
    }

    /// Stage a predicate update in a batch. Nothing is applied yet.
    pub fn batch_update_where(
        &mut self,
        batch: BatchId,
        predicate: &Predicate,
        assignments: &[(&str, Expr)],
    ) -> Result<()> {
        self.batch_stage(batch, BatchOp::update_where(predicate, assignments))
    }

    /// Stage one cell overwrite in a batch.
    pub fn batch_set_cell(
        &mut self,
        batch: BatchId,
        row: usize,
        attribute: &str,
        value: Value,
    ) -> Result<()> {
        let attribute = attribute.to_string();
        let op = BatchOp::SetCell {
            row,
            attribute,
            value,
        };
        self.batch_stage(batch, op)
    }

    /// Stage one row append in a batch.
    pub fn batch_append_row(&mut self, batch: BatchId, values: Vec<Value>) -> Result<()> {
        self.batch_stage(batch, BatchOp::AppendRow { values })
    }

    /// Stage an already-constructed [`BatchOp`]. The serving layer's
    /// commit requests carry ops in this form; the typed
    /// `batch_update_where` / `batch_set_cell` / `batch_append_row`
    /// helpers all reduce to it.
    pub fn batch_stage(&mut self, batch: BatchId, op: BatchOp) -> Result<()> {
        let pending = self.batches.get_mut(&batch);
        pending.ok_or(CoreError::NoSuchBatch(batch))?.ops.push(op);
        Ok(())
    }

    /// Open batches as `(id, view, staged ops)` (diagnostics).
    #[must_use]
    pub fn open_batches(&self) -> Vec<(BatchId, &str, usize)> {
        let mut out: Vec<(BatchId, &str, usize)> = self
            .batches
            .iter()
            .map(|(id, b)| (*id, b.view.as_str(), b.ops.len()))
            .collect();
        out.sort_unstable();
        out
    }

    /// Discard a batch's staged ops and release its view lock. The
    /// view is untouched — nothing was applied.
    pub fn abort_batch(&mut self, batch: BatchId) -> Result<()> {
        self.batches
            .remove(&batch)
            .map(|_| ())
            .ok_or(CoreError::NoSuchBatch(batch))
    }

    /// Commit a batch atomically. The staged ops apply to a shadow
    /// clone of the view's store (the live version's pages are never
    /// written); the clone is flushed durable, then installed with one
    /// in-memory pointer swap, and the displaced version is
    /// epoch-retired for draining snapshots. The batch's change records
    /// then take the writer epilogue every in-place edit takes:
    /// history, triggered derived columns marked stale (reported as
    /// `deferred`), the Summary DB maintained per attribute — an edit
    /// to `INCOME` leaves `AGE`'s entries
    /// fresh. A batch that appends rows invalidates every attribute's
    /// entries instead. Nothing after the install can fail the commit:
    /// it runs outside the caller's op budget, and summary-cache
    /// trouble short of a crash costs the cache, not the batch.
    ///
    /// Under [`crate::DurabilityPolicy::CrashConsistent`] the whole
    /// commit runs inside a durable `Txn` WAL intent: a crash at any
    /// I/O operation leaves either the full pre-batch state (swap not
    /// reached — the shadow pages are orphaned, the live version
    /// untouched) or the full post-batch state (swap done, shadow
    /// already durable; maintenance may be part-way). [`StatDbms::recover`]
    /// then conservatively rebuilds the summary cache and retires the
    /// intent; running it again changes nothing.
    ///
    /// On a non-crash failure (bad staged op, unreadable page) the
    /// batch aborts cleanly: the error is returned, the live version
    /// stays as it was, and the lock is released.
    pub fn commit_batch(&mut self, batch: BatchId) -> Result<UpdateReport> {
        let pending = self
            .batches
            .remove(&batch)
            .ok_or(CoreError::NoSuchBatch(batch))?;
        // The batch's lock guard moves into the writer section and
        // drops when it ends.
        self.write(
            &pending.view,
            Some(pending.guard),
            WriteIntent::Txn,
            |_| Ok(()),
            |dbms, ()| dbms.apply_batch(&pending.view, &pending.ops),
        )
    }

    /// Apply staged ops to a shadow clone, install it, and hand the
    /// records to the writer epilogue. Only called with the view lock
    /// held.
    fn apply_batch(&mut self, view: &str, ops: &[BatchOp]) -> Result<UpdateReport> {
        let exec = self.exec;
        let mut report = UpdateReport::default();
        let mut records = Vec::new();
        let mut column_reads = 0;
        let mut new_store = self.view(view)?.store.boxed_clone()?;
        // Each op is planned against the shadow as the ops before it
        // left it. A bad op fails its plan and the shadow is dropped.
        for op in ops {
            let plan = Plan::op(&*new_store, op, &exec)?;
            report.rows_matched += plan.rows_matched;
            column_reads += plan.column_reads;
            apply(&mut *new_store, plan, Some(&mut records))?;
        }
        // Durability point: every shadow page reaches disk before the
        // in-memory swap makes the version reachable.
        self.env.pool.flush_all()?;
        // Last cancellation checkpoint: past this line the batch is
        // committed. A budget trip here aborts the batch cleanly — the
        // shadow pages are orphaned, the live version was never
        // touched, and the typed error takes the non-crash path in
        // `commit_batch` (intent retired, lock released),
        // indistinguishable from any other aborted batch.
        sdbms_storage::budget::charge_ambient_ops(0)?;
        // Atomic in-memory install: one pointer swap, no I/O.
        self.view_mut(view)?.install_store(Arc::from(new_store));
        // The epilogue maintains the cache against the installed store
        // and cannot undo the install, so it runs outside the caller's
        // budget and only a crash stops it (the `Txn` intent is still
        // pending; recovery rebuilds the cache). Any other failure
        // costs the cache, not the commit.
        let _unbounded = BudgetScope::enter(CancelToken::unbounded());
        match self.epilogue(view, records, column_reads, Derived::Deferred, &mut report) {
            Err(e) if !error_is_crash(&e) => {
                self.view_mut(view)?.summary = SummaryDb::create(self.env.pool.clone())?;
            }
            done => done?,
        }
        Ok(report)
    }
}
