//! The one edit pipeline: lock → intent → plan → apply → record
//! (DESIGN.md §12). Every writer in this crate is made of these parts:
//! [`StatDbms::write`] (view lock, write-ahead intent, flush-and-clear
//! or invalidate-on-error), a [`Plan`] (the statement's [`Edit`]s,
//! validated before the first write), [`apply`] (the only caller of
//! `TableStore::set_cells` / `set_cell` / `append_row`, writing each
//! run of one attribute's cells a segment at a time; returns the
//! [`ChangeRecord`]s everything downstream is derived from), and
//! [`StatDbms::epilogue`] (history → derived rules → Summary DB), which
//! reads nothing but those records. An in-place writer and
//! `commit_batch` differ only in which store `apply` writes and when
//! that store becomes visible.

use std::collections::BTreeMap;

use sdbms_columnar::{TableStore, SEGMENT_ROWS};
use sdbms_data::{value::DataType, value::Value, DataError};
use sdbms_management::{ChangeRecord, DerivedRule, VectorGenerator, Version};
use sdbms_relational::Expr;
use sdbms_stats::regression;
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

/// Write a plan's edits to `store`, in order, pushing onto `records`
/// (when the caller wants them) one [`ChangeRecord`] per cell whose
/// value changed and per appended row. Each run of consecutive cell
/// edits of one attribute is one `TableStore::set_cells` call, which
/// stores each segment it touches once. The plan was validated, so
/// only a device error stops it — and then `records` holds exactly the
/// prefix that reached the store, counted in whole segments.
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
                let written = store.set_cells(attribute, &cells, &mut olds);
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
                written?;
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

/// When a writer brings the derived columns its edit triggers up to
/// date.
pub(crate) enum Derived {
    /// Now, each column by its own rule: an in-place writer.
    Fired,
    /// On demand: every triggered column is marked stale whatever its
    /// rule and reported as [`DerivedRule::DEFERRED`] — a shadow
    /// commit, which writes nothing once its store is installed.
    Deferred,
}

/// Which write-ahead intent a writer logs before it touches the view.
pub(crate) enum WriteIntent {
    /// A structural change no cached summary depends on (a new column,
    /// a new layout): the view lock only.
    LockOnly,
    /// An in-place edit of these attributes; the derived columns their
    /// rules trigger are added to what is logged.
    Attributes(Vec<String>),
    /// A shadow commit.
    Txn,
}

impl StatDbms {
    /// The one writer prologue. Takes the view's lock (or carries the
    /// one an open batch already `holds`), logs `intent` durably if the
    /// view has an intent log, then runs the writer: `plan` reads and
    /// validates and cannot write; `run` writes. On success everything
    /// buffered is flushed and the intent cleared. If `plan` fails
    /// nothing was touched and the intent is simply retired; if `run`
    /// fails without a crash, the summaries of the intent's attributes
    /// are invalidated first, so the cache is never left possibly
    /// stale. A crash leaves the intent for [`StatDbms::recover`], and
    /// the cell updates the writer recorded for it to write again: the
    /// crash may have discarded their buffer frames.
    pub(crate) fn write<P, T>(
        &mut self,
        view: &str,
        holds: Option<LockGuard>,
        intent: WriteIntent,
        plan: impl FnOnce(&Self) -> Result<P>,
        run: impl FnOnce(&mut Self, P) -> Result<T>,
    ) -> Result<T> {
        // Where this writer's cell updates will start in the history.
        let from = self.history_version(view)?;
        let wal = self.view(view)?.wal.as_ref();
        // Writers exclude each other (and scrubs/repairs) per view; a
        // held lock surfaces immediately as `CoreError::Lock`.
        let _lock = match holds {
            Some(guard) => guard,
            None => self.locks.acquire(self.locks.session(), &[view])?,
        };
        // Logged: the attributes plus the derived columns they trigger.
        let mut attributes = Vec::new();
        if let WriteIntent::Attributes(base) = &intent {
            let triggered = base.iter().flat_map(|a| self.rules.triggered_by(view, a));
            attributes = triggered.map(|(d, _)| d.to_string()).collect();
            attributes.extend_from_slice(base);
            attributes.sort_unstable();
            attributes.dedup();
        }
        let logged = match (wal, &intent) {
            (None, _) | (_, WriteIntent::LockOnly) => false,
            (Some(wal), WriteIntent::Attributes(_)) => wal.begin(&attributes).map(|()| true)?,
            (Some(wal), WriteIntent::Txn) => wal.begin_txn().map(|()| true)?,
        };
        let mut written = false;
        let result = plan(self).and_then(|planned| {
            written = true;
            run(self, planned)
        });
        // The writer's cell updates since `from` are in the history; a
        // crash may have discarded their frames, so recovery rewrites them.
        let crashed = |dbms: &mut Self| {
            dbms.redo.entry(view.to_string()).or_insert(from);
        };
        match &result {
            Ok(_) if logged => {
                // A crash while committing must surface: the write may
                // not be durable. Other trouble leaves the intent
                // pending, which is conservative (recovery invalidates),
                // so the successful write still reports success.
                if let Err(e) = self.commit_intent(view) {
                    if error_is_crash(&e) {
                        crashed(self);
                        return Err(e);
                    }
                }
            }
            // Nothing logged.
            Ok(_) => {}
            // The intent stays pending for recovery.
            Err(e) if error_is_crash(e) => {
                crashed(self);
            }
            Err(_) => {
                if let (true, Ok(v)) = (written, self.view(view)) {
                    for a in &attributes {
                        // Best-effort — with an intent log the pending intent still guards these attributes; without one this is already more than the volatile policy promises
                        let _ = v.summary.invalidate_attribute(a);
                    }
                }
                if logged {
                    // Retiring the intent is best-effort on this path — a pending intent is safe and recovery replays it
                    let _ = self.commit_intent(view);
                }
            }
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

    /// An in-place edit: apply `plan` to the live store, then the
    /// epilogue.
    pub(crate) fn edit_in_place(&mut self, view: &str, plan: Plan<'_>) -> Result<UpdateReport> {
        let mut report = UpdateReport {
            rows_matched: plan.rows_matched,
            ..UpdateReport::default()
        };
        let column_reads = plan.column_reads;
        let records = self.apply_live(view, plan)?;
        self.epilogue(view, records, column_reads, Derived::Fired, &mut report)?;
        Ok(report)
    }

    /// Apply `plan` to the live store. When a device error interrupts
    /// the apply, the written prefix still goes to the history: the
    /// history never lies.
    fn apply_live(&mut self, view: &str, plan: Plan<'_>) -> Result<Vec<ChangeRecord>> {
        let mut records = Vec::new();
        let applied = apply(self.view_mut(view)?.store_mut()?, plan, Some(&mut records));
        if let Err(e) = applied {
            self.record(view, records)?;
            return Err(e.into());
        }
        Ok(records)
    }

    /// Write again every cell update the history holds after version
    /// `from`, each to its new value; returns how many. Recovery's
    /// redo of an in-place edit a crash interrupted.
    pub(crate) fn redo_cells(&mut self, view: &str, from: Version) -> Result<usize> {
        let records: Vec<ChangeRecord> = self
            .catalog
            .view(view)?
            .history
            .records_since(from)
            .map(|(_, r)| r)
            .collect();
        let cells = cell_updates(&records).map(|(row, a, _, new)| Edit::Cell(row, a, new.clone()));
        let v = self.view_mut(view)?;
        let plan = Plan::resolved(&*v.store, cells.collect())?;
        let n = plan.edits.len();
        apply(v.store_mut()?, plan, None)?;
        Ok(n)
    }

    /// The one writer epilogue: what the Management DB's rules make of
    /// the `records` of an applied edit — history, derived attributes,
    /// Summary DB. An in-place writer runs it on the store it just
    /// wrote, a shadow commit on the store it just installed.
    pub(crate) fn epilogue(
        &mut self,
        view: &str,
        records: Vec<ChangeRecord>,
        column_reads: u64,
        derived: Derived,
        report: &mut UpdateReport,
    ) -> Result<()> {
        let appended = records
            .iter()
            .any(|r| matches!(r, ChangeRecord::RowAppended { .. }));
        let mut deltas = Deltas::new();
        let rows = self.absorb(view, records, column_reads, &mut deltas)?;
        report.cells_changed = deltas.values().map(Vec::len).sum();
        self.fire_derived_rules(view, &rows, &mut deltas, derived, report)?;
        self.maintain_summaries(view, deltas, appended, report)
    }

    /// Take in the records of an applied plan: the scans planning made
    /// go to the access tracker, one Summary-DB delta per changed cell
    /// to `deltas`, the records themselves to the history. Returns the
    /// rows touched.
    fn absorb(
        &mut self,
        view: &str,
        records: Vec<ChangeRecord>,
        column_reads: u64,
        deltas: &mut Deltas,
    ) -> Result<Vec<usize>> {
        self.view_mut(view)?.tracker.column_reads += column_reads;
        let mut rows = Vec::new();
        for (row, attribute, old, new) in cell_updates(&records) {
            let (old, new) = (old.clone(), new.clone());
            let of_attribute = deltas.entry(attribute.to_string()).or_default();
            of_attribute.push(UpdateDelta { old, new });
            rows.push(row);
        }
        rows.sort_unstable();
        rows.dedup();
        self.record(view, records)?;
        Ok(rows)
    }

    /// Fire the rule of every derived column triggered by the
    /// attributes in `deltas`, on the rows whose base cells changed —
    /// or, `when` they are deferred, only mark each one stale.
    fn fire_derived_rules(
        &mut self,
        view: &str,
        affected_rows: &[usize],
        deltas: &mut Deltas,
        when: Derived,
        report: &mut UpdateReport,
    ) -> Result<()> {
        let triggered = deltas.keys().flat_map(|a| self.rules.triggered_by(view, a));
        let fired: BTreeMap<String, DerivedRule> = triggered
            .map(|(column, rule)| {
                let rule = match when {
                    Derived::Fired => rule.clone(),
                    Derived::Deferred => DerivedRule::MarkStale { inputs: Vec::new() },
                };
                (column.to_string(), rule)
            })
            .collect();
        let mut stale = Vec::new();
        for (derived, rule) in fired {
            let class = rule.cost_class();
            match rule {
                DerivedRule::Local { expr } => {
                    let target = [(derived.clone(), expr)];
                    let plan = Plan::assign(&*self.view(view)?.store, affected_rows, &target)?;
                    let records = self.apply_live(view, plan)?;
                    self.absorb(view, records, 0, deltas)?;
                }
                DerivedRule::Regenerate { generator } => {
                    let plan = Plan::column(&*self.view(view)?.store, &derived, &generator)?;
                    self.regenerate(view, &derived, plan)?;
                }
                DerivedRule::MarkStale { .. } => {
                    self.view_mut(view)?.stale_columns.insert(derived.clone());
                    stale.push(derived.clone());
                }
            }
            report.derived_updates.push((derived, class));
        }
        // Every flag is set (memory only) before the first cache write,
        // so an error or crash below leaves no triggered column unflagged.
        for derived in stale {
            self.view(view)?.summary.invalidate_attribute(&derived)?;
        }
        Ok(())
    }

    /// Rewrite derived column `derived` in place from a
    /// [`Plan::column`]. The rule re-derives the cells, so history gets
    /// one annotation, not a record per cell, and every cached summary
    /// of the column is retired.
    pub(crate) fn regenerate(&mut self, view: &str, derived: &str, plan: Plan<'_>) -> Result<()> {
        let v = self.view_mut(view)?;
        v.tracker.column_reads += plan.column_reads;
        apply(v.store_mut()?, plan, None)?;
        v.stale_columns.remove(derived);
        v.summary.invalidate_attribute(derived)?;
        let text = format!("regenerated derived column {derived}");
        self.record(view, [ChangeRecord::Annotation { text }])?;
        Ok(())
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
