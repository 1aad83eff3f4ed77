//! The statistical DBMS façade — paper Figure 3 assembled.
//!
//! One [`StatDbms`] owns: the raw database on archive storage, any
//! number of per-analyst concrete views on disk (row or transposed
//! layout), one Summary Database per view, and the single Management
//! Database (view catalog + histories + rules). Every byte of view and
//! summary data moves through one simulated storage environment, so
//! the shared tracker sees the whole system's I/O.

use std::collections::HashMap;
use std::sync::Arc;

use sdbms_columnar::{Layout, RowStore, TableStore, TransposedFile};
use sdbms_data::{
    census, codebook::CodeBook, dataset::DataSet, metadata::MetadataGraph, metadata::NodeKind,
    rawdb::RawDatabase, schema::Attribute, schema::Schema, value::DataType, value::Value,
};
use sdbms_management::{
    ChangeRecord, DerivedRule, ManagementError, RuleStore, VectorGenerator, Version, ViewCatalog,
};
use sdbms_relational::{Expr, Predicate, ViewDefinition};
use sdbms_repair::{CursorStore, HealthRegistry};
use sdbms_storage::{IoSnapshot, StorageEnv};
use sdbms_summary::{
    get_or_compute_resilient, AccuracyPolicy, CacheStats, ComputeSource, Intent, IntentLog,
    StatFunction, SummaryDb, SummaryError, SummaryValue,
};
use sdbms_txn::{EpochRegistry, LockTable};

use crate::edit::{
    cell_updates, column_scans, derived_column, gather, Derived, Edit, Plan, WriteIntent,
};
use crate::error::{CoreError, Result};
use crate::repair::archive_column;
use crate::session::{BatchId, BatchOp, PendingBatch};
use crate::view::{AccessTracker, ConcreteView, UpdateReport};

/// How hard the DBMS works to keep Summary Databases consistent with
/// their views across a crash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// No crash protection (the historical behavior): summaries live in
    /// buffered pages and a crash may leave them silently stale. Zero
    /// extra I/O.
    #[default]
    Volatile,
    /// Write-ahead intent logging: every update first records the
    /// affected attributes on a durable log page, and commits by
    /// flushing the pool before clearing the intent. After a crash,
    /// [`StatDbms::recover`] invalidates (or rebuilds) exactly the
    /// entries the interrupted update could have left stale.
    CrashConsistent,
}

/// What [`StatDbms::recover`] did after a crash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Dirty buffer frames discarded by the restart (data the crash
    /// lost).
    pub frames_lost: usize,
    /// Summary entries invalidated because an intent was pending.
    pub entries_invalidated: usize,
    /// Summary Databases rebuilt from scratch because they (or their
    /// logs) were too damaged to invalidate selectively.
    pub caches_rebuilt: usize,
    /// Views that had a pending intent (in no particular order).
    pub views_recovered: Vec<String>,
}

/// The statistical database management system.
pub struct StatDbms {
    pub(crate) env: StorageEnv,
    pub(crate) raw: RawDatabase,
    pub(crate) codebooks: HashMap<String, CodeBook>,
    metadata: MetadataGraph,
    pub(crate) catalog: ViewCatalog,
    pub(crate) rules: RuleStore,
    pub(crate) views: HashMap<String, ConcreteView>,
    /// Layout given to newly materialized views (§2.6 recommends
    /// transposed).
    pub default_layout: Layout,
    durability: DurabilityPolicy,
    /// Morsel-driven executor configuration for parallel column scans.
    pub(crate) exec: sdbms_exec::ExecConfig,
    /// Per-view health states driving the self-healing subsystem.
    pub(crate) health: HealthRegistry,
    /// Durable scrub-resume cursor, created lazily on the first scrub.
    pub(crate) scrub_cursor: Option<CursorStore>,
    /// Epoch registry retiring replaced store versions after the last
    /// pinned snapshot drains.
    pub(crate) epochs: Arc<EpochRegistry>,
    /// Per-view lock table coordinating batches, statements,
    /// scrubs, and repairs.
    pub(crate) locks: Arc<LockTable>,
    /// Open (staged, uncommitted) update batches by id.
    pub(crate) batches: HashMap<BatchId, PendingBatch>,
}

impl std::fmt::Debug for StatDbms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatDbms")
            .field("raw_datasets", &self.raw.dataset_names().len())
            .field("views", &self.views.len())
            .finish()
    }
}

impl StatDbms {
    /// A DBMS over a fresh storage environment with `pool_pages`
    /// buffer frames.
    #[must_use]
    pub fn new(pool_pages: usize) -> Self {
        Self::with_env(StorageEnv::new(pool_pages))
    }

    /// A DBMS over an existing storage environment — typically one
    /// built with [`StorageEnv::with_faults`] for robustness testing.
    #[must_use]
    pub fn with_env(env: StorageEnv) -> Self {
        let raw = RawDatabase::new(env.archive.clone());
        StatDbms {
            env,
            raw,
            codebooks: HashMap::new(),
            metadata: MetadataGraph::new(),
            catalog: ViewCatalog::new(),
            rules: RuleStore::new(),
            views: HashMap::new(),
            default_layout: Layout::Transposed,
            durability: DurabilityPolicy::Volatile,
            exec: sdbms_exec::ExecConfig::from_env(),
            health: HealthRegistry::new(),
            scrub_cursor: None,
            epochs: Arc::new(EpochRegistry::new()),
            locks: Arc::new(LockTable::new()),
            batches: HashMap::new(),
        }
    }

    /// The executor configuration driving parallel column scans.
    #[must_use]
    pub fn exec_config(&self) -> sdbms_exec::ExecConfig {
        self.exec
    }

    /// Override the scan worker count (1 = serial). Results are
    /// bit-identical across worker counts; only the wall clock moves.
    pub fn set_workers(&mut self, workers: usize) {
        self.exec = sdbms_exec::ExecConfig::with_workers(workers);
    }

    /// Replace the whole executor configuration. Worker count never
    /// affects results; changing `morsel_rows` changes the partition
    /// (and thus the accumulator merge tree), so bit-identity is only
    /// guaranteed between runs sharing a morsel size.
    pub fn set_exec_config(&mut self, cfg: sdbms_exec::ExecConfig) {
        self.exec = cfg;
    }

    /// The current durability policy.
    #[must_use]
    pub fn durability(&self) -> DurabilityPolicy {
        self.durability
    }

    /// Switch the durability policy. Under
    /// [`DurabilityPolicy::CrashConsistent`] every view (existing and
    /// future) gets a write-ahead intent log; switching back to
    /// [`DurabilityPolicy::Volatile`] drops the logs.
    pub fn set_durability(&mut self, policy: DurabilityPolicy) -> Result<()> {
        self.durability = policy;
        for v in self.views.values_mut() {
            match policy {
                DurabilityPolicy::CrashConsistent => {
                    if v.wal.is_none() {
                        v.wal = Some(IntentLog::create(self.env.disk.clone())?);
                    }
                }
                DurabilityPolicy::Volatile => v.wal = None,
            }
        }
        if matches!(policy, DurabilityPolicy::CrashConsistent) {
            // Establish the durable baseline: everything materialized so
            // far must survive a crash, or recovery would find the view
            // data itself torn.
            self.env.pool.flush_all()?;
        }
        Ok(())
    }

    /// The storage environment (for I/O accounting in experiments).
    #[must_use]
    pub fn env(&self) -> &StorageEnv {
        &self.env
    }

    /// Snapshot of all I/O counters.
    #[must_use]
    pub fn io(&self) -> IoSnapshot {
        self.env.tracker.snapshot()
    }

    // ---- raw database & metadata ---------------------------------------

    /// Load a data set into the raw database (archive storage) and
    /// register its structure in the metadata graph.
    pub fn load_raw(&mut self, ds: &DataSet) -> Result<()> {
        self.raw.store(ds)?;
        let ds_node = ds.name().to_string();
        self.metadata.add_node(
            &ds_node,
            NodeKind::DataSet {
                dataset: ds_node.clone(),
            },
            &format!("raw data set ({} rows)", ds.len()),
        );
        for a in ds.schema().attributes() {
            let node = format!("{}.{}", ds_node, a.name);
            self.metadata.add_node(
                &node,
                NodeKind::Attribute {
                    dataset: ds_node.clone(),
                    attribute: a.name.clone(),
                },
                &format!("{} attribute ({})", a.role, a.name),
            );
            self.metadata.add_edge(&ds_node, &node)?;
        }
        Ok(())
    }

    /// Register a code book (usable as a join source named
    /// `<attribute>_codes`).
    pub fn register_codebook(&mut self, cb: CodeBook) {
        self.codebooks
            .insert(format!("{}_codes", cb.attribute()), cb);
    }

    /// The code book registered under `name` (e.g. `AGE_GROUP_codes`).
    #[must_use]
    pub fn codebook(&self, name: &str) -> Option<&CodeBook> {
        self.codebooks.get(name)
    }

    /// The raw database.
    #[must_use]
    pub fn raw(&self) -> &RawDatabase {
        &self.raw
    }

    /// The metadata graph (SUBJECT-style navigation).
    #[must_use]
    pub fn metadata(&self) -> &MetadataGraph {
        &self.metadata
    }

    /// Mutable metadata graph (topic nodes, generalizations).
    pub fn metadata_mut(&mut self) -> &mut MetadataGraph {
        &mut self.metadata
    }

    // ---- view materialization -------------------------------------------

    /// Materialize a concrete view with the default layout.
    ///
    /// Enforces the §2.3 duplicate check: if an equivalent view is
    /// visible to `owner`, returns
    /// [`CoreError::EquivalentViewExists`] instead of re-reading the
    /// archive.
    pub fn materialize(&mut self, def: ViewDefinition, owner: &str) -> Result<()> {
        let layout = self.default_layout;
        self.materialize_with(def, owner, layout)
    }

    /// Materialize with an explicit layout.
    pub fn materialize_with(
        &mut self,
        def: ViewDefinition,
        owner: &str,
        layout: Layout,
    ) -> Result<()> {
        if self.views.contains_key(&def.name) {
            return Err(CoreError::ViewExists(def.name));
        }
        if let Some(existing) = self.catalog.find_equivalent(&def, owner) {
            return Err(CoreError::EquivalentViewExists {
                existing: existing.definition.name.clone(),
                owner: existing.owner.clone(),
            });
        }
        let ds = def.execute(&mut |name| resolve_source(&self.codebooks, &self.raw, name))?;
        let store = Arc::from(self.build_store(layout, &ds)?);
        let summary = SummaryDb::create(self.env.pool.clone())?;
        let wal = match self.durability {
            DurabilityPolicy::CrashConsistent => Some(IntentLog::create(self.env.disk.clone())?),
            DurabilityPolicy::Volatile => None,
        };
        let name = def.name.clone();
        self.catalog.register(def, owner)?;
        self.views.insert(
            name.clone(),
            ConcreteView {
                name: name.clone(),
                owner: owner.to_string(),
                store,
                version: 0,
                layout,
                summary,
                tracker: Default::default(),
                stale_columns: Default::default(),
                wal,
                epochs: Arc::clone(&self.epochs),
                pool: self.env.pool.clone(),
            },
        );
        if matches!(self.durability, DurabilityPolicy::CrashConsistent) {
            // The new view's pages must be on disk before any durable
            // section trusts them as the recovery baseline.
            self.env.pool.flush_all()?;
        }
        Ok(())
    }

    /// A fresh store holding `ds` in `layout`.
    pub(crate) fn build_store(
        &self,
        layout: Layout,
        ds: &DataSet,
    ) -> Result<Box<dyn TableStore + Send + Sync>> {
        let pool = self.env.pool.clone();
        Ok(match layout {
            Layout::Row => Box::new(RowStore::from_dataset(pool, ds)?),
            Layout::Transposed => Box::new(TransposedFile::from_dataset(pool, ds)?),
        })
    }

    /// Names of all materialized views, sorted.
    #[must_use]
    pub fn view_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.views.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// A view handle.
    pub fn view(&self, name: &str) -> Result<&ConcreteView> {
        self.views
            .get(name)
            .ok_or_else(|| CoreError::NoSuchView(name.to_string()))
    }

    pub(crate) fn view_mut(&mut self, name: &str) -> Result<&mut ConcreteView> {
        self.views
            .get_mut(name)
            .ok_or_else(|| CoreError::NoSuchView(name.to_string()))
    }

    /// Destroy a view (store, summary, catalog entry, rules).
    pub fn drop_view(&mut self, name: &str, owner: &str) -> Result<()> {
        let v = self.view(name)?;
        if v.owner != owner {
            return Err(CoreError::NotOwner {
                view: name.to_string(),
                owner: v.owner.clone(),
            });
        }
        self.views.remove(name);
        self.catalog.deregister(name)?;
        self.rules.drop_view(name);
        Ok(())
    }

    // ---- reading views ---------------------------------------------------

    /// One column of a view (statistical access; tracked). Morsels are
    /// fetched by the parallel executor and concatenated in morsel
    /// order, so the result matches a serial `read_column` exactly.
    pub fn column(&mut self, view: &str, attribute: &str) -> Result<Vec<Value>> {
        let exec = self.exec;
        let v = self.view_mut(view)?;
        v.tracker.column_reads += 1;
        Ok(sdbms_exec::read_table_column(&*v.store, attribute, &exec)?)
    }

    /// One row of a view (informational access; tracked).
    pub fn row(&mut self, view: &str, row: usize) -> Result<Vec<Value>> {
        let v = self.view_mut(view)?;
        v.tracker.row_reads += 1;
        Ok(v.store.read_row(row)?)
    }

    /// The whole view as an in-memory data set.
    pub fn dataset(&self, view: &str) -> Result<DataSet> {
        let v = self.view(view)?;
        Ok(v.store.to_dataset(view)?)
    }

    /// A simple random sample of the view's rows (§2.2 exploratory
    /// sampling). The rows are drawn first, and only the segments that
    /// hold them are read, column by column; for a given seed the rows
    /// are those `sdbms_stats::sample::sample_dataset` draws from the
    /// whole view.
    pub fn sample(&self, view: &str, k: usize, seed: u64) -> Result<DataSet> {
        let store = &*self.view(view)?.store;
        let k = k.min(store.len());
        let rows = sdbms_stats::sample::sample_indices(store.len(), k, seed)?;
        let schema = store.schema();
        let mut columns = schema
            .attributes()
            .iter()
            .map(|a| Ok(gather(store, &a.name, &rows)?.into_iter()))
            .collect::<Result<Vec<_>>>()?;
        let sampled = rows
            .iter()
            .map(|_| columns.iter_mut().filter_map(Iterator::next).collect())
            .collect();
        let name = format!("{view}_sample{k}");
        Ok(DataSet::from_rows(&name, schema.clone(), sampled)?)
    }

    /// Rows of `view` whose `attribute` value falls outside its
    /// declared plausibility range (§2.2 data checking).
    pub fn suspicious_rows(&mut self, view: &str, attribute: &str) -> Result<Vec<usize>> {
        let v = self.view_mut(view)?;
        let schema = v.store.schema();
        let attr = schema.attribute(attribute)?;
        let Some((lo, hi)) = attr.valid_range else {
            return Ok(Vec::new());
        };
        v.tracker.column_reads += 1;
        let col = v.store.read_column(attribute)?;
        Ok(col
            .iter()
            .enumerate()
            .filter(|(_, val)| match val.as_f64() {
                Some(x) => !(lo..=hi).contains(&x),
                None => false,
            })
            .map(|(i, _)| i)
            .collect())
    }

    // ---- the Summary Database path ----------------------------------------

    /// Compute `function(attribute)` on a view, through the view's
    /// Summary Database (§3.2 search: serve from cache, else compute
    /// and insert). Respects attribute metadata: numeric summaries of
    /// encoded attributes are rejected.
    ///
    /// The lookup degrades gracefully: a damaged cache entry is
    /// quarantined and treated as a miss, and if the view's own store
    /// is unreadable the answer is recomputed from the raw database
    /// ([`crate::repair::archive_column`]: view definition re-executed,
    /// cleaning history replayed) and served as
    /// [`ComputeSource::Fallback`] — correct, but without caching until
    /// the view is repaired.
    pub fn compute(
        &mut self,
        view: &str,
        attribute: &str,
        function: &StatFunction,
        accuracy: AccuracyPolicy,
    ) -> Result<(SummaryValue, ComputeSource)> {
        // Health gate: while the view is degraded, repairing, or
        // unrecoverable, its store and cache are off-limits — serve
        // straight from the raw archive and never touch the Summary DB,
        // so nothing computed from suspect data can be cached.
        if self.health.is_impaired(view) {
            return self.compute_degraded(view, attribute, function);
        }
        // Split borrows: the fallback closure reads the catalog, raw
        // database and code books while the view itself is mutably
        // borrowed for the primary path.
        let (codebooks, raw, exec) = (&self.codebooks, &self.raw, &self.exec);
        let v = self
            .views
            .get_mut(view)
            .ok_or_else(|| CoreError::NoSuchView(view.to_string()))?;
        let record = self.catalog.view(view)?;
        let store = &*v.store;
        let attr = &summarizable(store.schema(), attribute, function)?.name;
        let mut profile = summary_scan(store, &mut v.tracker, attr, exec);
        let mut archive = || {
            archive_column(record, codebooks, raw, store.schema(), attr).map_err(SummaryError::Data)
        };
        Ok(get_or_compute_resilient(
            &v.summary,
            attribute,
            function,
            accuracy,
            &mut profile,
            Some(&mut archive),
        )?)
    }

    /// Like [`StatDbms::compute`], but before touching data, try to
    /// *infer* the answer from other cached entries (§5.1's Database
    /// Abstract rules): exactly (mean from sum/count, std-dev from
    /// variance, …) or as a histogram-based estimate. Exact inferences
    /// are cached like computed results; estimates are returned but not
    /// cached (they would poison exact reads).
    pub fn compute_with_inference(
        &mut self,
        view: &str,
        attribute: &str,
        function: &StatFunction,
        accuracy: AccuracyPolicy,
    ) -> Result<(SummaryValue, ComputeSource, Option<String>)> {
        {
            let v = self.view(view)?;
            if v.summary.lookup_fresh(attribute, function)?.is_none() {
                match sdbms_summary::infer(&v.summary, attribute, function)? {
                    Some(sdbms_summary::Inferred::Exact(value)) => {
                        v.summary.put(&sdbms_summary::Entry {
                            attribute: attribute.to_string(),
                            function: function.clone(),
                            result: value.clone(),
                            freshness: sdbms_summary::Freshness::Fresh,
                            // Inferred without data, so there is no
                            // incremental state; updates invalidate it.
                            aux: None,
                            updates_since_refresh: 0,
                        })?;
                        return Ok((value, ComputeSource::Cache, Some("inferred".into())));
                    }
                    Some(sdbms_summary::Inferred::Estimate { value, basis }) => {
                        return Ok((
                            SummaryValue::Scalar(value),
                            ComputeSource::Cache,
                            Some(format!("estimate from {basis}")),
                        ));
                    }
                    None => {}
                }
            }
        }
        let (value, source) = self.compute(view, attribute, function, accuracy)?;
        Ok((value, source, None))
    }

    /// Pre-compute the §3.2 standing summary set for every
    /// summarizable attribute of a view.
    pub fn warm_standing_summaries(&mut self, view: &str) -> Result<usize> {
        let names: Vec<String> = {
            let v = self.view(view)?;
            v.store
                .schema()
                .attributes()
                .iter()
                .filter(|a| a.is_summarizable())
                .map(|a| a.name.clone())
                .collect()
        };
        let exec = self.exec;
        let fns = sdbms_summary::standing_summary_functions();
        let mut warmed = 0;
        for attr in names {
            // One parallel batch scan answers whatever part of the
            // standing set is cold. If the scan or a cache write fails
            // (a faulty page, damaged cache bytes), fall back to the
            // per-function compute path, which degrades gracefully
            // instead of aborting the warm-up.
            let by_profile = {
                let v = self.view_mut(view)?;
                let mut profile = summary_scan(&*v.store, &mut v.tracker, &attr, &exec);
                sdbms_summary::warm_attribute(&v.summary, &attr, &fns, &mut profile).ok()
            };
            match by_profile {
                Some(n) => warmed += n,
                None => {
                    for f in &fns {
                        // Skip functions that fail on degenerate
                        // columns (all missing) rather than aborting.
                        if self.compute(view, &attr, f, AccuracyPolicy::Exact).is_ok() {
                            warmed += 1;
                        }
                    }
                }
            }
        }
        Ok(warmed)
    }

    /// Cache-effectiveness counters of a view's Summary Database.
    pub fn cache_stats(&self, view: &str) -> Result<CacheStats> {
        Ok(self.view(view)?.summary.stats())
    }

    // ---- updates -----------------------------------------------------------
    //
    // Every writer is lock → intent → plan → apply → record, each step
    // in `crate::edit`; what is left here is what a statement *is*:
    // its intent, its plan, and the epilogue it takes.

    /// Update cells by predicate (§4.1): for every row satisfying
    /// `predicate`, assign each `(attribute, expression)`. Records
    /// history, maintains every affected Summary Database entry
    /// (incrementally through its auxiliary state, else marked stale),
    /// and fires derived-attribute rules.
    ///
    /// All-or-nothing, a crash included: the statement and the derived
    /// columns it triggers are written to a successor version of the
    /// store, flushed, and installed with one pointer swap, so a failure
    /// or a crash before the swap leaves no trace, and after it the
    /// whole statement is there.
    ///
    /// Under [`DurabilityPolicy::CrashConsistent`] the update follows
    /// the write-ahead intent protocol: the affected attributes
    /// (assignments plus the derived columns they trigger) are logged
    /// durably *before* any cell changes, and the intent is cleared
    /// only after the Summary DB is maintained and flushed. A crash
    /// anywhere in between leaves a pending intent for
    /// [`StatDbms::recover`], which invalidates those attributes'
    /// summaries.
    pub fn update_where(
        &mut self,
        view: &str,
        predicate: &Predicate,
        assignments: &[(&str, Expr)],
    ) -> Result<UpdateReport> {
        let op = BatchOp::update_where(predicate, assignments);
        let intent = assignments.iter().map(|(a, _)| (*a).to_string()).collect();
        self.write(view, None, WriteIntent::Attributes(intent), |dbms| {
            dbms.edit(view, Derived::Fired, |dbms, store, applied| {
                let plan = Plan::op(store, &op, &dbms.exec)?;
                applied.apply(store, plan)
            })
        })
    }

    /// Flush everything buffered, then durably clear the view's intent.
    pub(crate) fn commit_intent(&self, view: &str) -> Result<()> {
        self.env.pool.flush_all()?;
        if let Some(wal) = self.views.get(view).and_then(|v| v.wal.as_ref()) {
            wal.clear()?;
        }
        Ok(())
    }

    /// Whether the simulated machine is down (a crash fault fired).
    /// All I/O fails until [`StatDbms::recover`] is called.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.env.is_crashed()
    }

    /// Restart after a crash and repair every view's Summary Database
    /// from its write-ahead intent log: pending intents invalidate the
    /// named attributes' entries (or rebuild the cache when even that
    /// is impossible), so no summary is ever served stale. View data
    /// needs nothing: every writer installs a flushed version with one
    /// pointer swap, so a crash leaves each view at the version before
    /// or after the interrupted write. Each action is recorded in the
    /// view's history as a [`ChangeRecord::Recovery`] so analysts can
    /// see what happened.
    ///
    /// Safe to call when no crash happened (it is then a plain restart:
    /// dirty frames are dropped and any pending intents are honored).
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        let mut report = RecoveryReport {
            frames_lost: self.env.restart()?,
            ..RecoveryReport::default()
        };
        let names: Vec<String> = self.views.keys().cloned().collect();
        let pool = self.env.pool.clone();
        for name in names {
            let mut repair_interrupted = false;
            let v = match self.views.get_mut(&name) {
                Some(v) => v,
                None => continue,
            };
            let Some(wal) = v.wal.as_ref() else { continue };
            let detail = match wal.pending() {
                Ok(None) => continue,
                Ok(Some(Intent::Attributes(attrs))) => {
                    let mut invalidated = 0usize;
                    let mut damaged = false;
                    for a in &attrs {
                        match v.summary.invalidate_attribute(a) {
                            Ok(n) => invalidated += n,
                            Err(_) => {
                                damaged = true;
                                break;
                            }
                        }
                    }
                    if damaged {
                        v.summary = SummaryDb::create(pool.clone())?;
                        report.caches_rebuilt += 1;
                        format!(
                            "crash recovery: summary cache rebuilt \
                             (damaged while invalidating {attrs:?})"
                        )
                    } else {
                        report.entries_invalidated += invalidated;
                        format!(
                            "crash recovery: invalidated {invalidated} summary \
                             entries for {attrs:?}"
                        )
                    }
                }
                // A whole-view repair was interrupted mid-flight: the
                // store and caches may be half-swapped. Rebuild the
                // cache and leave the view degraded — reads fall back
                // to the archive until [`StatDbms::repair_view`] is
                // re-run and verifies clean.
                Ok(Some(Intent::Repair)) => {
                    v.summary = SummaryDb::create(pool.clone())?;
                    report.caches_rebuilt += 1;
                    repair_interrupted = true;
                    "crash recovery: a view repair was interrupted; view \
                     degraded until the repair is re-run"
                        .to_string()
                }
                // A transactional batch was interrupted mid-commit. The
                // view data is version-atomic (a successor is installed
                // by one in-memory pointer swap after its pages are
                // durable), so the data is either all pre-batch or all
                // post-batch. The summary cache cannot
                // tell which — and post-install maintenance may have
                // been cut short — so rebuild it conservatively; running
                // recovery again reaches the same state (idempotent).
                Ok(Some(Intent::Txn)) => {
                    v.summary = SummaryDb::create(pool.clone())?;
                    report.caches_rebuilt += 1;
                    "crash recovery: a transactional batch was interrupted; \
                     summary cache rebuilt (view data is version-atomic)"
                        .to_string()
                }
                // "Everything" intent, or a log page we cannot read:
                // maximal conservatism — rebuild the cache.
                Ok(Some(Intent::All)) | Err(_) => {
                    v.summary = SummaryDb::create(pool.clone())?;
                    report.caches_rebuilt += 1;
                    "crash recovery: summary cache rebuilt (intent covered \
                     all attributes or log was unreadable)"
                        .to_string()
                }
            };
            // Make the repair durable before retiring the intent, then
            // leave an audit trail. An interrupted *view repair* keeps
            // its intent pending — only a verified repair_view() clears
            // it — so the degraded marking survives further restarts.
            if repair_interrupted {
                self.env.pool.flush_all()?;
                self.health.mark_degraded(&name, &detail);
            } else {
                self.commit_intent(&name)?;
                // With the intent honored, the log's history is dead
                // weight: truncate the chain so crash after crash can
                // never grow it without bound. Best-effort — an
                // uncompacted chain is only longer, never wrong.
                if let Some(wal) = self.views.get(&name).and_then(|v| v.wal.as_ref()) {
                    let _ = wal.compact();
                }
            }
            self.record(&name, [ChangeRecord::Recovery { detail }])?;
            report.views_recovered.push(name);
        }
        Ok(report)
    }

    /// Mark cells missing by predicate (§3.1 "marked as invalid").
    pub fn invalidate_where(
        &mut self,
        view: &str,
        predicate: &Predicate,
        attribute: &str,
    ) -> Result<UpdateReport> {
        self.update_where(
            view,
            predicate,
            &[(attribute, Expr::Literal(Value::Missing))],
        )
    }

    /// Regenerate a derived column on demand from its rule (for
    /// columns a [`DerivedRule::MarkStale`] rule or a batch commit left
    /// out of date). A writer like any other: view lock, write-ahead
    /// intent, a successor version, annotated in history, the column's
    /// summaries retired.
    pub fn regenerate_column(&mut self, view: &str, derived: &str) -> Result<()> {
        let Some(generator) = self.rules.rule(view, derived)?.generator() else {
            // A mark-stale rule carries no generator; re-deriving is
            // the analyst's job. Clear the flag only.
            self.view_mut(view)?.stale_columns.remove(derived);
            return Ok(());
        };
        let intent = WriteIntent::Attributes(vec![derived.to_string()]);
        self.write(view, None, intent, |dbms| {
            dbms.edit(view, Derived::Fired, |_, store, applied| {
                let plan = Plan::column(store, derived, &generator)?;
                applied.regenerate(store, derived, plan)
            })
        })
        .map(drop)
    }

    // ---- derived columns ----------------------------------------------------

    /// Add a derived column defined by a row expression, with the
    /// row-local maintenance rule (§3.2's log / row-sum example).
    pub fn add_derived_column(
        &mut self,
        view: &str,
        name: &str,
        dtype: DataType,
        expr: Expr,
    ) -> Result<()> {
        self.add_column_with_rule(view, name, dtype, DerivedRule::Local { expr })
    }

    /// Add a regression-residual column `y ~ x` with the
    /// regenerate-whole-vector rule (§3.2's residuals example).
    pub fn add_residuals_column(&mut self, view: &str, name: &str, x: &str, y: &str) -> Result<()> {
        let generator = VectorGenerator::Residuals {
            x: x.to_string(),
            y: y.to_string(),
        };
        self.add_column_with_rule(
            view,
            name,
            DataType::Float,
            DerivedRule::Regenerate { generator },
        )
    }

    /// Append the derived column `name`, filled from `rule`, to a
    /// successor version, install it, and register the rule. Under the
    /// view lock; no cached summary depends on a column that did not
    /// exist, so no intent is logged.
    fn add_column_with_rule(
        &mut self,
        view: &str,
        name: &str,
        dtype: DataType,
        rule: DerivedRule,
    ) -> Result<()> {
        let generator = rule.generator();
        self.write(view, None, WriteIntent::LockOnly, |dbms| {
            dbms.edit(view, Derived::Fired, |_, store, applied| {
                let values = derived_column(store, generator.as_ref(), dtype)?;
                applied.column_reads += generator.as_ref().map_or(0, column_scans);
                store.add_column(Attribute::derived(name, dtype), values)?;
                let attribute = name.to_string();
                applied
                    .records
                    .push(ChangeRecord::ColumnAppended { attribute });
                Ok(())
            })?;
            dbms.rules.register(view, name, rule);
            Ok(())
        })
    }

    /// Override the maintenance rule of an existing derived column
    /// (§3.2 lets the analyst choose; e.g. demote an expensive
    /// regenerate rule to mark-stale during heavy editing).
    pub fn set_derived_rule(
        &mut self,
        view: &str,
        attribute: &str,
        rule: DerivedRule,
    ) -> Result<()> {
        // The view, the column and every column the rule reads must
        // exist: a rule over a missing column would fail the next edit
        // after its cells were already written.
        let schema = self.view(view)?.store.schema();
        schema.require(attribute)?;
        for input in rule.input_attributes() {
            schema.require(&input)?;
        }
        self.rules.rule(view, attribute)?; // must already be derived
        self.rules.register(view, attribute, rule);
        Ok(())
    }

    /// Derived columns of a view currently marked out-of-date.
    pub fn stale_columns(&self, view: &str) -> Result<Vec<String>> {
        Ok(self.view(view)?.stale_columns.iter().cloned().collect())
    }

    /// The rule store (Management Database rules).
    #[must_use]
    pub fn rules(&self) -> &RuleStore {
        &self.rules
    }

    // ---- history: checkpoints, undo, publishing ------------------------------

    /// Record a named checkpoint in a view's history.
    pub fn checkpoint(&mut self, view: &str, label: &str) -> Result<Version> {
        self.view(view)?; // existence check
        let label = label.to_string();
        self.record(view, [ChangeRecord::Checkpoint { label }])
    }

    /// Append a free-text annotation (data-checking notes).
    pub fn annotate(&mut self, view: &str, text: &str) -> Result<Version> {
        self.view(view)?;
        let text = text.to_string();
        self.record(view, [ChangeRecord::Annotation { text }])
    }

    /// Current history version of a view.
    pub fn history_version(&self, view: &str) -> Result<Version> {
        Ok(self.catalog.view(view)?.history.version())
    }

    /// Roll a view back to an earlier version (§3.2 "roll a view back
    /// to a previous state"). The rollback itself is recorded, so the
    /// history stays append-only and an undo can itself be undone.
    /// The inverses are known before anything is applied, so a
    /// rollback is an ordinary statement: same lock, intent and
    /// successor version, and restoring base attributes re-derives
    /// dependent columns and maintains the Summary DB exactly as a
    /// forward update would.
    pub fn rollback_to(&mut self, view: &str, version: Version) -> Result<usize> {
        let inverses = self.catalog.view(view)?.history.undo_to(version)?;
        let cells = || cell_updates(&inverses);
        let intent = cells().map(|(_, a, ..)| a.to_string()).collect();
        self.write(view, None, WriteIntent::Attributes(intent), |dbms| {
            dbms.edit(view, Derived::Fired, |_, store, applied| {
                let edits = cells().map(|(row, a, _, new)| Edit::Cell(row, a, new.clone()));
                let plan = Plan::resolved(store, edits.collect())?;
                applied.apply(store, plan)
            })
        })?;
        Ok(inverses.len())
    }

    /// Roll back to the most recent checkpoint with this label.
    pub fn rollback_to_checkpoint(&mut self, view: &str, label: &str) -> Result<usize> {
        let version =
            self.catalog
                .view(view)?
                .history
                .checkpoint(label)
                .ok_or(CoreError::Management(ManagementError::NoSuchVersion {
                    version: 0,
                    current: 0,
                }))?;
        self.rollback_to(view, version)
    }

    /// Publish a view so other analysts can find it, use it, and read
    /// its cleaning log (§2.3).
    pub fn publish(&mut self, view: &str, owner: &str) -> Result<()> {
        let v = self.view(view)?;
        if v.owner != owner {
            return Err(CoreError::NotOwner {
                view: view.to_string(),
                owner: v.owner.clone(),
            });
        }
        self.catalog.publish(view, owner)?;
        Ok(())
    }

    /// The data-cleaning actions of a view, if it is visible to
    /// `analyst`.
    pub fn cleaning_log(&self, view: &str, analyst: &str) -> Result<Vec<String>> {
        let rec = self.catalog.view(view)?;
        let visible =
            rec.owner == analyst || rec.visibility == sdbms_management::Visibility::Published;
        if !visible {
            return Err(CoreError::NotOwner {
                view: view.to_string(),
                owner: rec.owner.clone(),
            });
        }
        Ok(rec
            .history
            .cleaning_log()
            .iter()
            .map(ToString::to_string)
            .collect())
    }

    /// The Management Database's view catalog.
    #[must_use]
    pub fn catalog(&self) -> &ViewCatalog {
        &self.catalog
    }

    // ---- reorganization --------------------------------------------------------

    /// Rebuild a view's store in a different layout and install it.
    /// Summary entries stay valid (the data is unchanged); only the
    /// storage moves.
    pub fn reorganize(&mut self, view: &str, layout: Layout) -> Result<()> {
        if self.view(view)?.layout == layout {
            return Ok(());
        }
        self.write(view, None, WriteIntent::LockOnly, |dbms| {
            let store = dbms.build_store(layout, &dbms.view(view)?.store.to_dataset(view)?)?;
            dbms.install(view, store, Ok(()))?;
            let v = dbms.view_mut(view)?;
            v.layout = layout;
            v.tracker = Default::default();
            Ok(())
        })
    }

    /// Reorganize if the access pattern recommends a different layout
    /// (the §2.3 "intelligent access method"). Returns the new layout
    /// if a reorganization happened.
    pub fn auto_reorganize(&mut self, view: &str) -> Result<Option<Layout>> {
        let v = self.view(view)?;
        match v.tracker.recommended_layout() {
            Some(rec) if rec != v.layout => {
                self.reorganize(view, rec)?;
                Ok(Some(rec))
            }
            _ => Ok(None),
        }
    }
}

/// A view-definition source by name: a registered code book, else a
/// raw data set extracted from the archive.
pub(crate) fn resolve_source(
    codebooks: &HashMap<String, CodeBook>,
    raw: &RawDatabase,
    name: &str,
) -> std::result::Result<DataSet, sdbms_data::DataError> {
    match codebooks.get(name) {
        Some(cb) => Ok(cb.to_dataset()),
        None => raw.extract(name, None, None),
    }
}

/// The Summary Database's view of a stored column: a tracked batch
/// scan feeding the accumulators it is asked for.
pub(crate) fn summary_scan<'a>(
    store: &'a (dyn TableStore + Send + Sync),
    tracker: &'a mut AccessTracker,
    attribute: &'a str,
    exec: &'a sdbms_exec::ExecConfig,
) -> impl FnMut(sdbms_exec::Accumulators) -> sdbms_summary::Result<sdbms_exec::ColumnProfile> + 'a {
    move |feeds| {
        tracker.column_reads += 1;
        sdbms_exec::profile_table_column_for(store, attribute, exec, feeds)
            .map_err(SummaryError::Data)
    }
}

/// The paper's metadata rule, applied wherever a summary is asked for:
/// the attribute must exist, and a numeric function needs an attribute
/// whose values are quantities (not category codes or identifiers).
pub(crate) fn summarizable<'s>(
    schema: &'s Schema,
    attribute: &str,
    function: &StatFunction,
) -> Result<&'s Attribute> {
    let attr = schema.attribute(attribute)?;
    if function.needs_numeric() && !attr.is_summarizable() {
        return Err(CoreError::NotSummarizable {
            attribute: attribute.to_string(),
        });
    }
    Ok(attr)
}

/// Whether an error means the simulated machine went down (as opposed
/// to data damage or a logic error). Crashes leave the write-ahead
/// intent pending; everything else is handled in place.
pub(crate) fn error_is_crash(e: &CoreError) -> bool {
    match e {
        CoreError::Storage(se) => se.is_crash(),
        CoreError::Summary(SummaryError::Storage(se)) => se.is_crash(),
        CoreError::Summary(SummaryError::Data(sdbms_data::DataError::Storage(se))) => se.is_crash(),
        CoreError::Data(sdbms_data::DataError::Storage(se)) => se.is_crash(),
        _ => false,
    }
}

/// Convenience: build a DBMS pre-loaded with the paper's running
/// example — Figure 1 in the raw database and the Figure 2 code book
/// registered.
pub fn paper_demo_dbms(pool_pages: usize) -> Result<StatDbms> {
    let mut dbms = StatDbms::new(pool_pages);
    dbms.load_raw(&census::figure1())?;
    dbms.register_codebook(CodeBook::figure2_age_group());
    Ok(dbms)
}
