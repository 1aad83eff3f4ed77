//! The one edit pipeline: lock → intent → plan → apply → install →
//! record (DESIGN.md §12). Every writer in this crate is made of these
//! parts: [`StatDbms::write`] (view lock, write-ahead intent,
//! flush-and-clear), a [`Plan`] (the statement's [`Edit`]s, validated
//! before the first write), [`apply`] (the only caller of
//! `TableStore::set_cells` / `set_cell` / `append_row`, writing each
//! run of one attribute's cells a segment at a time; returns the
//! [`ChangeRecord`]s everything downstream is derived from),
//! [`StatDbms::install`] (flush, then one pointer swap) and
//! [`StatDbms::epilogue`] (history → derived flags → Summary DB), which
//! reads nothing but those records. No writer mutates an installed
//! store: [`StatDbms::edit`] applies to a successor version that shares
//! the installed one's pages and copies only those it writes. A
//! statement and `commit_batch` differ only in whether the derived
//! columns their edits trigger are fired or deferred.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sdbms_columnar::{TableStore, SEGMENT_ROWS};
use sdbms_data::{value::DataType, value::Value, DataError};
use sdbms_management::{ChangeRecord, DerivedRule, VectorGenerator, Version};
use sdbms_relational::Expr;
use sdbms_stats::regression;
use sdbms_storage::budget::{BudgetScope, CancelToken};
use sdbms_summary::{apply_updates, quarantinable, MaintenanceReport, SummaryDb, UpdateDelta};
use sdbms_txn::LockGuard;

use crate::dbms::{error_is_crash, summary_scan, StatDbms};
use crate::error::Result;
use crate::session::BatchOp;
use crate::view::UpdateReport;

type Store = dyn TableStore + Send + Sync;

/// Summary-DB deltas by attribute, in attribute order so rule firing
/// and maintenance run in the same order every time.
type Deltas = BTreeMap<String, Vec<UpdateDelta>>;

/// One resolved edit: a [`ChangeRecord`] before it happened. Names and
/// rows are borrowed from whoever staged it.
pub(crate) enum Edit<'a> {
    /// Overwrite cell `(row, attribute)` with a new value.
    Cell(usize, &'a str, Value),
    /// Append one row (schema order).
    Row(&'a [Value]),
}

/// One statement's edits, validated against the store they will be
/// applied to. There is no other way to hand edits to [`apply`].
pub(crate) struct Plan<'a> {
    edits: Vec<Edit<'a>>,
    /// Rows the statement's predicate matched (0 without a predicate).
    pub(crate) rows_matched: usize,
    /// Whole-column scans planning made, for the access tracker.
    pub(crate) column_reads: u64,
}

impl<'a> Plan<'a> {
    /// Already-resolved edits. Everything `set_cell` / `append_row`
    /// would reject is rejected here, for the whole statement, before
    /// any of it is written.
    pub(crate) fn resolved(store: &Store, edits: Vec<Edit<'a>>) -> Result<Self> {
        let (schema, len) = (store.schema(), store.len());
        for edit in &edits {
            match edit {
                Edit::Cell(row, attribute, new) => {
                    schema.check_cell(attribute, new)?;
                    if *row >= len {
                        return Err(DataError::NoSuchRow(*row).into());
                    }
                }
                Edit::Row(values) => schema.check_row(values)?,
            }
        }
        Ok(Plan {
            edits,
            rows_matched: 0,
            column_reads: 0,
        })
    }

    /// Assign each `(attribute, expression)` on each of `rows`, every
    /// expression evaluated against the row as stored now.
    pub(crate) fn assign(
        store: &Store,
        rows: &[usize],
        assignments: &'a [(String, Expr)],
    ) -> Result<Self> {
        let schema = store.schema();
        let exprs = assignments
            .iter()
            .map(|(attr, expr)| Ok((expr, schema.attribute(attr)?.dtype)))
            .collect::<Result<Vec<_>>>()?;
        let edits = evaluate(store, rows, &exprs, |row, k, new| {
            Edit::Cell(row, &assignments[k].0, new)
        })?;
        Self::resolved(store, edits)
    }

    /// One statement. Only a predicate update needs planning; its
    /// matches come back in ascending row order whatever the worker
    /// count or zone-map pruning, identical to an unpruned scan.
    pub(crate) fn op(
        store: &Store,
        op: &'a BatchOp,
        exec: &sdbms_exec::ExecConfig,
    ) -> Result<Self> {
        match op {
            BatchOp::UpdateWhere {
                predicate,
                assignments,
            } => {
                let rows = sdbms_relational::filter_table_rows(store, predicate, exec)?;
                let mut plan = Self::assign(store, &rows, assignments)?;
                plan.rows_matched = rows.len();
                plan.column_reads = predicate.referenced_columns().len() as u64;
                Ok(plan)
            }
            BatchOp::SetCell {
                row,
                attribute,
                value,
            } => Self::resolved(store, vec![Edit::Cell(*row, attribute, value.clone())]),
            BatchOp::AppendRow { values } => Self::resolved(store, vec![Edit::Row(values)]),
        }
    }

    /// Rewrite the whole derived column `attribute` from `generator`.
    pub(crate) fn column(
        store: &Store,
        attribute: &'a str,
        generator: &VectorGenerator,
    ) -> Result<Self> {
        let dtype = store.schema().attribute(attribute)?.dtype;
        let values = derived_column(store, Some(generator), dtype)?.into_iter();
        let edits = values
            .enumerate()
            .map(|(row, new)| Edit::Cell(row, attribute, new));
        let mut plan = Self::resolved(store, edits.collect())?;
        plan.column_reads = column_scans(generator);
        Ok(plan)
    }
}

/// The one row-expression loop: evaluate every `(expression, target
/// type)` on each of `rows` (ascending). Only the columns the
/// expressions reference are read, and of those only the segments that
/// hold `rows`: a literal assignment reads nothing.
fn evaluate<T>(
    store: &Store,
    rows: &[usize],
    exprs: &[(&Expr, DataType)],
    make: impl Fn(usize, usize, Value) -> T,
) -> Result<Vec<T>> {
    let schema = store.schema();
    let bound = exprs
        .iter()
        .map(|(expr, dtype)| Ok((expr.bind(schema)?, *dtype)))
        .collect::<Result<Vec<_>>>()?;
    let mut referenced: Vec<String> = exprs
        .iter()
        .flat_map(|(expr, _)| expr.referenced_columns())
        .collect();
    referenced.sort_unstable();
    referenced.dedup();
    let mut columns = referenced
        .iter()
        .map(|a| Ok((schema.require(a)?, gather(store, a, rows)?)))
        .collect::<Result<Vec<_>>>()?;
    // A row as wide as the schema, holding only the referenced cells.
    let mut values = vec![Value::Missing; schema.len()];
    let mut out = Vec::with_capacity(rows.len() * bound.len());
    for (i, &row) in rows.iter().enumerate() {
        for (ci, column) in &mut columns {
            values[*ci] = std::mem::replace(&mut column[i], Value::Missing);
        }
        for (k, (expr, dtype)) in bound.iter().enumerate() {
            out.push(make(row, k, coerce(expr.eval(&values), *dtype)));
        }
    }
    Ok(out)
}

/// The values of `attribute` at `rows` (ascending), read one
/// segment-sized window at a time: only the windows that hold one of
/// `rows` are read, each once, from its first to its last such row.
pub(crate) fn gather(store: &Store, attribute: &str, rows: &[usize]) -> Result<Vec<Value>> {
    debug_assert!(rows.is_sorted(), "gather takes ascending rows");
    let mut out = Vec::with_capacity(rows.len());
    for window in rows.chunk_by(|a, b| a / SEGMENT_ROWS == b / SEGMENT_ROWS) {
        let (lo, hi) = (window[0], window[window.len() - 1] + 1);
        let batch = store.read_column_batch(attribute, lo, hi - lo)?;
        out.extend(window.iter().map(|row| batch.value_at(row - lo)));
    }
    Ok(out)
}

/// The values of a whole derived column from its rule's generator, as
/// `store` stands now. A column no rule defines starts out missing.
pub(crate) fn derived_column(
    store: &Store,
    generator: Option<&VectorGenerator>,
    dtype: DataType,
) -> Result<Vec<Value>> {
    match generator {
        Some(VectorGenerator::Residuals { x, y }) => {
            residual_column(&store.read_column(x)?, &store.read_column(y)?)
        }
        Some(VectorGenerator::Expression(expr)) => {
            let rows: Vec<usize> = (0..store.len()).collect();
            evaluate(store, &rows, &[(expr, dtype)], |_, _, new| new)
        }
        None => Ok(vec![Value::Missing; store.len()]),
    }
}

/// Whole-column scans [`derived_column`] makes for `generator`.
pub(crate) fn column_scans(generator: &VectorGenerator) -> u64 {
    match generator {
        VectorGenerator::Residuals { .. } => 2,
        VectorGenerator::Expression(_) => 0,
    }
}

/// Coerce expression results to the column type where lossless
/// (arithmetic yields floats; integer columns take integral floats).
fn coerce(v: Value, dtype: DataType) -> Value {
    match (&v, dtype) {
        (Value::Float(x), DataType::Int) if x.fract() == 0.0 && x.is_finite() => {
            Value::Int(*x as i64)
        }
        _ => v,
    }
}

/// Residuals of `y ~ x` as a value column; rows where either input is
/// missing get a missing residual.
fn residual_column(xs_raw: &[Value], ys_raw: &[Value]) -> Result<Vec<Value>> {
    let pairs: Vec<(f64, f64)> = xs_raw
        .iter()
        .zip(ys_raw)
        .filter_map(|(x, y)| Some((x.as_f64()?, y.as_f64()?)))
        .collect();
    let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let fit = regression::linear_fit(&xs, &ys)?;
    Ok(xs_raw
        .iter()
        .zip(ys_raw)
        .map(|(x, y)| match (x.as_f64(), y.as_f64()) {
            (Some(xv), Some(yv)) => Value::Float(fit.residual(xv, yv)),
            _ => Value::Missing,
        })
        .collect())
}

/// Write a plan's edits to `store`, a version no reader has seen, in
/// order, pushing onto `records` (when the caller wants them) one
/// [`ChangeRecord`] per cell whose value changed and per appended row.
/// Each run of consecutive cell edits of one attribute is one
/// `TableStore::set_cells` call, which stores each segment it touches
/// once. The plan was validated, so only a device error stops it, and
/// then the caller drops `store`.
pub(crate) fn apply(
    store: &mut (dyn TableStore + Send + Sync),
    plan: Plan<'_>,
    mut records: Option<&mut Vec<ChangeRecord>>,
) -> std::result::Result<(), DataError> {
    let mut edits = plan.edits.into_iter().peekable();
    while let Some(edit) = edits.next() {
        match edit {
            Edit::Cell(row, attribute, new) => {
                let mut cells = vec![(row, new)];
                while let Some(Edit::Cell(row, _, new)) =
                    edits.next_if(|e| matches!(e, Edit::Cell(_, a, _) if *a == attribute))
                {
                    cells.push((row, new));
                }
                let mut olds = Vec::with_capacity(cells.len());
                store.set_cells(attribute, &cells, &mut olds)?;
                if let Some(records) = records.as_deref_mut() {
                    for ((row, new), old) in cells.into_iter().zip(olds) {
                        if old != new {
                            let attribute = attribute.to_string();
                            records.push(ChangeRecord::CellUpdate {
                                row,
                                attribute,
                                old,
                                new,
                            });
                        }
                    }
                }
            }
            Edit::Row(values) => {
                store.append_row(values.to_vec())?;
                if let Some(records) = records.as_deref_mut() {
                    let values = values.to_vec();
                    records.push(ChangeRecord::RowAppended { values });
                }
            }
        }
    }
    Ok(())
}

/// The cell updates among `records`, as `(row, attribute, old, new)`.
pub(crate) fn cell_updates(
    records: &[ChangeRecord],
) -> impl Iterator<Item = (usize, &str, &Value, &Value)> {
    records.iter().filter_map(|r| match r {
        ChangeRecord::CellUpdate {
            row,
            attribute,
            old,
            new,
        } => Some((*row, attribute.as_str(), old, new)),
        _ => None,
    })
}

/// How a writer brings the derived columns its cell updates trigger up
/// to date.
pub(crate) enum Derived {
    /// On the successor, each column by its own rule, so the columns
    /// install with the edit: a statement.
    Fired,
    /// Every triggered column is marked stale whatever its rule and
    /// reported as [`DerivedRule::DEFERRED`]: a batch commit, whose
    /// columns are regenerated on demand.
    Deferred,
}

/// Which write-ahead intent a writer logs before it touches the view.
pub(crate) enum WriteIntent {
    /// A change no cached summary depends on (a new column, a new
    /// layout): the view lock only.
    LockOnly,
    /// A statement that writes these attributes; the derived columns
    /// their rules trigger are added to what is logged. A crash leaves
    /// their entries for recovery to invalidate.
    Attributes(Vec<String>),
    /// A batch commit: a crash leaves the cache for recovery to rebuild.
    Txn,
}

/// What a writer did to its successor version, for the epilogue once
/// that version is installed.
#[derive(Default)]
pub(crate) struct Applied {
    /// The history records, in order.
    pub(crate) records: Vec<ChangeRecord>,
    /// Whole-column scans planning made, for the access tracker.
    pub(crate) column_reads: u64,
    /// Derived columns the writer left stale (`true`) or rewrote from
    /// their rule (`false`).
    derived: Vec<(String, bool)>,
    report: UpdateReport,
}

impl Applied {
    /// Apply `plan` to `store` ([`apply`]), keeping its records.
    pub(crate) fn apply(&mut self, store: &mut Store, plan: Plan<'_>) -> Result<()> {
        self.report.rows_matched += plan.rows_matched;
        self.column_reads += plan.column_reads;
        Ok(apply(store, plan, Some(&mut self.records))?)
    }

    /// Rewrite derived column `derived` of `store` from a
    /// [`Plan::column`]. The rule re-derives the cells, so the history
    /// gets one annotation, not a record per cell, and every cached
    /// summary of the column is retired.
    pub(crate) fn regenerate(
        &mut self,
        store: &mut Store,
        derived: &str,
        plan: Plan<'_>,
    ) -> Result<()> {
        self.column_reads += plan.column_reads;
        apply(store, plan, None)?;
        let text = format!("regenerated derived column {derived}");
        self.records.push(ChangeRecord::Annotation { text });
        self.derived.push((derived.to_string(), false));
        Ok(())
    }
}

impl StatDbms {
    /// The one writer prologue. Takes the view's lock (or carries the
    /// one an open batch already `holds`), logs `intent` durably if the
    /// view has an intent log, then runs the writer. On success
    /// everything buffered is flushed and the intent cleared. A writer
    /// that fails without a crash installed nothing (see
    /// [`StatDbms::edit`]), so its intent is simply retired; a crash
    /// leaves the intent for [`StatDbms::recover`].
    pub(crate) fn write<T>(
        &mut self,
        view: &str,
        holds: Option<LockGuard>,
        intent: WriteIntent,
        run: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let wal = self.view(view)?.wal.as_ref();
        // Writers exclude each other (and scrubs/repairs) per view; a
        // held lock surfaces immediately as `CoreError::Lock`.
        let _lock = match holds {
            Some(guard) => guard,
            None => self.locks.acquire(self.locks.session(), &[view])?,
        };
        let logged = match (wal, &intent) {
            (None, _) | (_, WriteIntent::LockOnly) => false,
            (Some(wal), WriteIntent::Attributes(base)) => {
                // Logged: the attributes plus the derived columns they
                // trigger.
                let triggered = base.iter().flat_map(|a| self.rules.triggered_by(view, a));
                let mut attributes: Vec<String> = triggered.map(|(d, _)| d.to_string()).collect();
                attributes.extend_from_slice(base);
                attributes.sort_unstable();
                attributes.dedup();
                wal.begin(&attributes).map(|()| true)?
            }
            (Some(wal), WriteIntent::Txn) => wal.begin_txn().map(|()| true)?,
        };
        let result = run(self);
        match &result {
            // Nothing logged.
            _ if !logged => {}
            // A crash while committing must surface: the write may not
            // be durable. Other trouble leaves the intent pending,
            // which is conservative (recovery invalidates), so the
            // successful write still reports success.
            Ok(_) => {
                if let Err(e) = self.commit_intent(view) {
                    if error_is_crash(&e) {
                        return Err(e);
                    }
                }
            }
            // The intent stays pending for recovery.
            Err(e) if error_is_crash(e) => {}
            // Retiring the intent is best-effort on this path — a pending intent is safe and recovery replays it
            Err(_) => drop(self.commit_intent(view)),
        }
        result
    }

    /// Append `changes` to the view's update history; returns the
    /// version of the last one.
    pub(crate) fn record(
        &mut self,
        view: &str,
        changes: impl IntoIterator<Item = ChangeRecord>,
    ) -> Result<Version> {
        Ok(self.catalog.view_mut(view)?.history.extend(changes))
    }

    /// The one write protocol. `edit` writes a successor of the view's
    /// store (`TableStore::boxed_clone`: no I/O, and its first write to
    /// a shared page copies that page), and the derived columns its
    /// cell updates trigger are brought up to date on the successor as
    /// `derived` says. Then the successor is installed
    /// ([`StatDbms::install`]), and only then do its records reach the
    /// history and the Summary DB ([`StatDbms::epilogue`]). An error
    /// before the install discards the successor: the view, its history
    /// and its cache are as they were, and a crash cannot leave a mix.
    pub(crate) fn edit(
        &mut self,
        view: &str,
        derived: Derived,
        edit: impl FnOnce(&Self, &mut Store, &mut Applied) -> Result<()>,
    ) -> Result<UpdateReport> {
        let mut next = self.view(view)?.store.boxed_clone()?;
        let mut applied = Applied::default();
        let written = edit(self, &mut *next, &mut applied).and_then(|()| {
            applied.report.cells_changed = cell_updates(&applied.records).count();
            self.derive(view, &mut *next, &mut applied, derived)
        });
        self.install(view, next, written)?;
        self.epilogue(view, applied)
    }

    /// Install `next`, a version of the view's store no reader has
    /// seen, once its writer has `written` it: every page it wrote is
    /// flushed, then it replaces the current version with one pointer
    /// swap. Every writer's version becomes current here, and nowhere
    /// else; one whose writer failed, or that fails here, is discarded.
    pub(crate) fn install(
        &mut self,
        view: &str,
        next: Box<Store>,
        written: Result<()>,
    ) -> Result<()> {
        // Durability point: every page of the new version reaches disk
        // before the swap makes it reachable. Then the last
        // cancellation checkpoint: past it the write is committed.
        let durable = written
            .and_then(|()| Ok(self.env.pool.flush_all()?))
            .and_then(|()| Ok(sdbms_storage::budget::charge_ambient_ops(0)?));
        let v = self.view_mut(view)?;
        match durable {
            Ok(()) => v.install_store(Arc::from(next)),
            Err(e) => {
                v.discard(next);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Bring the derived columns triggered by the cell updates among
    /// `applied`'s records up to date on `store`, on the rows whose
    /// base cells changed, each by its own rule — or, `when` they are
    /// deferred, only mark each one stale.
    fn derive(
        &self,
        view: &str,
        store: &mut Store,
        applied: &mut Applied,
        when: Derived,
    ) -> Result<()> {
        let mut rows: Vec<usize> = cell_updates(&applied.records)
            .map(|(row, ..)| row)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        let attributes: BTreeSet<&str> =
            cell_updates(&applied.records).map(|(_, a, ..)| a).collect();
        let fired: BTreeMap<String, DerivedRule> = attributes
            .into_iter()
            .flat_map(|a| self.rules.triggered_by(view, a))
            .map(|(column, rule)| {
                let rule = match when {
                    Derived::Fired => rule.clone(),
                    Derived::Deferred => DerivedRule::MarkStale { inputs: Vec::new() },
                };
                (column.to_string(), rule)
            })
            .collect();
        for (derived, rule) in fired {
            let class = rule.cost_class();
            match rule {
                DerivedRule::Local { expr } => {
                    let target = [(derived.clone(), expr)];
                    let plan = Plan::assign(store, &rows, &target)?;
                    apply(store, plan, Some(&mut applied.records))?;
                }
                DerivedRule::Regenerate { generator } => {
                    let plan = Plan::column(store, &derived, &generator)?;
                    applied.regenerate(store, &derived, plan)?;
                }
                DerivedRule::MarkStale { .. } => applied.derived.push((derived.clone(), true)),
            }
            applied.report.derived_updates.push((derived, class));
        }
        Ok(())
    }

    /// The one writer epilogue, on the version just installed: what the
    /// Management DB's rules make of a writer's records. The planner's
    /// scans go to the access tracker, the records to the history, the
    /// derived columns' flags are set and their summaries retired, and
    /// every other affected attribute's summaries are maintained. It
    /// cannot undo the install, so it runs outside the caller's op
    /// budget and only a crash stops it (the writer's intent is still
    /// pending; recovery repairs the cache). Any other failure costs the
    /// cache, rebuilt empty, not the write.
    fn epilogue(&mut self, view: &str, applied: Applied) -> Result<UpdateReport> {
        let _unbounded = BudgetScope::enter(CancelToken::unbounded());
        let Applied {
            records,
            column_reads,
            derived,
            mut report,
        } = applied;
        let appended = records
            .iter()
            .any(|r| matches!(r, ChangeRecord::RowAppended { .. }));
        let mut deltas = Deltas::new();
        for (_, attribute, old, new) in cell_updates(&records) {
            let (old, new) = (old.clone(), new.clone());
            let of_attribute = deltas.entry(attribute.to_string()).or_default();
            of_attribute.push(UpdateDelta { old, new });
        }
        let absorb = || -> Result<()> {
            let v = self.view_mut(view)?;
            v.tracker.column_reads += column_reads;
            for (column, stale) in &derived {
                if *stale {
                    v.stale_columns.insert(column.clone());
                } else {
                    v.stale_columns.remove(column);
                }
            }
            self.record(view, records)?;
            // Every flag is set (memory only) before the first cache
            // write, so an error or crash below leaves no triggered
            // column unflagged.
            for (column, _) in &derived {
                self.view(view)?.summary.invalidate_attribute(column)?;
            }
            self.maintain_summaries(view, deltas, appended, &mut report)
        };
        match absorb() {
            Err(e) if !error_is_crash(&e) => {
                self.view_mut(view)?.summary = SummaryDb::create(self.env.pool.clone())?;
            }
            done => done?,
        }
        Ok(report)
    }

    /// Summary Database maintenance per affected attribute: each entry
    /// absorbs the deltas through its auxiliary state, goes stale if it
    /// has none, and is recomputed here if its state gives up. An
    /// appended row is not an [`UpdateDelta`] (the
    /// frequency family counts `Missing` as a value, so "overwrite of
    /// Missing" would decrement the wrong bucket): an edit that
    /// `appended` rows invalidates every attribute's entries instead.
    fn maintain_summaries(
        &mut self,
        view: &str,
        mut deltas: Deltas,
        appended: bool,
        report: &mut UpdateReport,
    ) -> Result<()> {
        let pool = self.env.pool.clone();
        let exec = self.exec;
        let v = self.view_mut(view)?;
        if appended {
            for a in v.store.schema().attributes() {
                deltas.entry(a.name.clone()).or_default();
            }
        }
        for (attr, ds) in deltas {
            // One batch scan feeds every entry whose aux gave up.
            let mut profile = summary_scan(&*v.store, &mut v.tracker, &attr, &exec);
            let maintained = if appended {
                let retired = v.summary.invalidate_attribute(&attr);
                retired.map(|invalidated| MaintenanceReport {
                    invalidated,
                    ..MaintenanceReport::default()
                })
            } else {
                apply_updates(&v.summary, &attr, &ds, &mut profile)
            };
            let r = match maintained {
                Ok(r) => r,
                // Degrade gracefully: if maintenance hit damage (bad
                // cache bytes, a dead page) rather than a crash, fall
                // back to invalidating this attribute's entries — and
                // if even that fails, rebuild the cache. Either way the
                // update itself succeeds and nothing stale survives.
                Err(e) if quarantinable(&e) => {
                    v.summary.note_quarantine();
                    match v.summary.invalidate_attribute(&attr) {
                        Ok(n) => report.maintenance.invalidated += n,
                        Err(_) => v.summary = SummaryDb::create(pool.clone())?,
                    }
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            report.maintenance.incremental += r.incremental;
            report.maintenance.recomputed += r.recomputed;
            report.maintenance.invalidated += r.invalidated;
        }
        Ok(())
    }
}
