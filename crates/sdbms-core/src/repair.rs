//! Self-healing views: background scrubbing, corruption triage, and
//! lineage-based repair with update-history replay.
//!
//! Everything below the raw archive in paper Figure 3 is *derived*
//! state: concrete views come from re-executing their Management-DB
//! definition against the raw database, zone maps come from segment
//! data, and Summary-DB entries come from view columns. This module
//! exploits that redundancy to survive media damage:
//!
//! 1. **Detect** — [`StatDbms::scrub`] walks data pages, zone-map
//!    pages, and Summary-DB entries on a cooperative budget, verifying
//!    checksums and cross-checking a sample of cached entries against
//!    from-scratch recomputes. The resume cursor is persisted (same
//!    direct-disk protocol as the summary intent log), so a paused or
//!    crashed scrub continues where it stopped.
//! 2. **Triage** — findings are classified by blast radius
//!    ([`sdbms_repair::Component`]).
//! 3. **Repair** — [`StatDbms::repair_view`] applies the cheapest
//!    sound rung, each reading from a source below the damage in the
//!    derivation chain: zone maps rebuild from segment data; damaged view
//!    data regenerates from the raw archive via the catalog's view
//!    definition and is then **re-cleaned by replaying the view's
//!    update history**, restoring the analyst's edits; a damaged
//!    Summary DB is reset (entries recompute lazily from the repaired
//!    view). Repair runs under a durable `Repair` WAL intent, so a
//!    crash mid-repair leaves the view degraded rather than trusting
//!    half-swapped state.
//! 4. **Verify & readmit** — a clean post-repair detection pass flips
//!    the view back to `Healthy`. While `Degraded`/`Repairing`, reads
//!    are admitted from the archive as `ComputeSource::Fallback`
//!    results that are never cached. [`archive_column`] is the only
//!    way such a column is produced, for impaired views and for a
//!    healthy view whose scan just failed alike.
//!
//! `Unrecoverable` is reserved for the one case with no sound
//! authority left: the archive itself fails, or the bounded retry
//! budget is spent.

use std::collections::HashMap;

use sdbms_columnar::TableStore;
use sdbms_data::{
    codebook::CodeBook, rawdb::RawDatabase, schema::Attribute, schema::Schema, value::DataType,
    value::Value, DataError,
};
use sdbms_management::{ChangeRecord, DerivedRule, VectorGenerator, ViewRecord};
use sdbms_repair::{
    Component, CorruptionFinding, CursorStore, ScrubCursor, ScrubPhase, ScrubReport, ViewHealth,
};
use sdbms_storage::{Page, PageId};
use sdbms_summary::{
    quarantinable, ComputeSource, Freshness, StatFunction, SummaryDb, SummaryValue,
};

use crate::dbms::{error_is_crash, resolve_source, summarizable, StatDbms};
use crate::edit::{apply, derived_column, Derived, Edit, Plan};
use crate::error::{CoreError, Result};

/// Every `SUMMARY_SAMPLE_EVERY`-th Summary-DB entry a scrub pass walks
/// is semantically cross-checked against a from-scratch recompute (the
/// rest get the cheap structural check only).
const SUMMARY_SAMPLE_EVERY: usize = 4;

/// Relative tolerance for the sampled cross-check. Recomputes follow
/// the same code path as the original computation, so anything beyond
/// rounding noise is damage.
const CROSS_CHECK_TOL: f64 = 1e-9;

/// What one [`StatDbms::repair_view`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Damage located by the pre-repair detection pass.
    pub findings: Vec<CorruptionFinding>,
    /// Descriptions of the repair rungs applied, cheapest first.
    pub actions: Vec<String>,
    /// Zone maps rebuilt from segment data.
    pub zone_maps_rebuilt: usize,
    /// True when the store was regenerated from the raw archive and
    /// the update history replayed onto it.
    pub store_regenerated: bool,
    /// History records replayed onto the regenerated store.
    pub history_replayed: usize,
    /// True when the Summary DB was reset (entries recompute lazily
    /// from the repaired view).
    pub summary_reset: bool,
}

fn data_error_is_crash(e: &DataError) -> bool {
    matches!(e, DataError::Storage(se) if se.is_crash())
}

impl StatDbms {
    // ---- health ---------------------------------------------------------

    /// Current health of a view as tracked by the self-healing
    /// subsystem. Views never found damaged are `Healthy`.
    pub fn health(&self, view: &str) -> Result<ViewHealth> {
        self.view(view)?;
        Ok(self.health.health(view))
    }

    // ---- scrubbing ------------------------------------------------------

    /// One budgeted scrub pass over every view's data pages, zone-map
    /// pages, and Summary-DB entries, resuming from the persisted
    /// cursor. `budget` is counted in pages/entries examined; the
    /// underlying I/O is charged to the shared cost tracker like any
    /// other work. Damage is reported and marks the view `Degraded`
    /// (reads degrade to archive fallback until repaired) — the scrub
    /// itself never mutates data.
    pub fn scrub(&mut self, budget: u64) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let mut remaining = budget;
        if self.scrub_cursor.is_none() {
            self.scrub_cursor = Some(CursorStore::create(self.env.disk.clone())?);
        }
        let cursor = match &self.scrub_cursor {
            Some(cs) => cs.load(),
            None => ScrubCursor::start(),
        };
        let names: Vec<String> = {
            let mut n: Vec<String> = self.views.keys().cloned().collect();
            n.sort_unstable();
            n
        };
        let (mut vi, mut phase, mut index) = match cursor.view {
            Some(v) => match names.iter().position(|n| *n == v) {
                Some(i) => (i, cursor.phase, cursor.index as usize),
                // The cursor's view was dropped since the last pass:
                // restart the cycle rather than skipping anything.
                None => (0, ScrubPhase::Data, 0),
            },
            None => (0, ScrubPhase::Data, 0),
        };
        let scrub_session = self.locks.session();
        while vi < names.len() {
            let name = names[vi].clone();
            // The scrubber takes the same per-view lock class as update
            // batches and repairs. A view someone is writing is simply
            // skipped this pass (never blocked on) and comes back on
            // the next cycle.
            let _view_lock = match self.locks.acquire(scrub_session, &[name.as_str()]) {
                Ok(g) => g,
                Err(_) => {
                    report.views_skipped += 1;
                    vi += 1;
                    phase = ScrubPhase::Data;
                    index = 0;
                    continue;
                }
            };
            // Page phases: raw checksum verification through the disk.
            while !matches!(phase, ScrubPhase::Summary) {
                let pages: Vec<PageId> = match self.views.get(&name) {
                    Some(v) if matches!(phase, ScrubPhase::Data) => v.store.data_page_ids(),
                    Some(v) => v.store.zone_map_page_ids(),
                    None => Vec::new(),
                };
                while index < pages.len() {
                    if remaining == 0 {
                        return self.scrub_pause(report, &name, phase, index);
                    }
                    remaining -= 1;
                    let pid = pages[index];
                    index += 1;
                    let mut page = Page::new();
                    match self.env.disk.read_page(pid, &mut page) {
                        Ok(()) => report.pages_verified += 1,
                        Err(e) if e.is_crash() => return Err(e.into()),
                        Err(e) => {
                            let component = if matches!(phase, ScrubPhase::Data) {
                                Component::Segment
                            } else {
                                Component::ZoneMap
                            };
                            let finding = CorruptionFinding {
                                view: name.clone(),
                                component,
                                page: Some(u64::from(pid)),
                                detail: e.to_string(),
                            };
                            self.health.mark_degraded(&name, &finding.to_string());
                            report.findings.push(finding);
                        }
                    }
                }
                phase = match phase {
                    ScrubPhase::Data => ScrubPhase::Zones,
                    _ => ScrubPhase::Summary,
                };
                index = 0;
            }
            // Summary phase: enumerate entries (structural check), and
            // semantically cross-check a sample of fresh entries
            // against a from-scratch recompute from the view.
            let entries = match self.views.get(&name) {
                Some(v) => match v.summary.all_entries() {
                    Ok(es) => es,
                    Err(e) if quarantinable(&e) => {
                        let finding = CorruptionFinding {
                            view: name.clone(),
                            component: Component::SummaryEntry,
                            page: None,
                            detail: format!("summary enumeration failed: {e}"),
                        };
                        self.health.mark_degraded(&name, &finding.to_string());
                        report.findings.push(finding);
                        Vec::new()
                    }
                    Err(e) => return Err(e.into()),
                },
                None => Vec::new(),
            };
            while index < entries.len() {
                if remaining == 0 {
                    return self.scrub_pause(report, &name, ScrubPhase::Summary, index);
                }
                remaining -= 1;
                let entry = &entries[index];
                let sampled = index % SUMMARY_SAMPLE_EVERY == 0;
                index += 1;
                report.entries_checked += 1;
                if !sampled || entry.freshness != Freshness::Fresh {
                    continue;
                }
                if let Some(finding) = self.cross_check_entry(&name, entry)? {
                    self.health.mark_degraded(&name, &finding.to_string());
                    report.findings.push(finding);
                }
            }
            vi += 1;
            phase = ScrubPhase::Data;
            index = 0;
        }
        // Cycle complete: reset the cursor so the next pass starts a
        // fresh walk from the first view.
        if let Some(cs) = &self.scrub_cursor {
            cs.save(&ScrubCursor::start())?;
        }
        report.completed_cycle = true;
        Ok(report)
    }

    /// Persist the resume point and report budget exhaustion.
    fn scrub_pause(
        &self,
        mut report: ScrubReport,
        view: &str,
        phase: ScrubPhase,
        index: usize,
    ) -> Result<ScrubReport> {
        if let Some(cs) = &self.scrub_cursor {
            cs.save(&ScrubCursor {
                view: Some(view.to_string()),
                phase,
                index: index as u64,
            })?;
        }
        report.exhausted_budget = true;
        Ok(report)
    }

    /// Recompute one fresh Summary-DB entry from the view column and
    /// compare. `Ok(None)` means clean (or unverifiable without a
    /// numeric recompute); `Ok(Some(_))` is a mismatch finding.
    fn cross_check_entry(
        &self,
        view: &str,
        entry: &sdbms_summary::Entry,
    ) -> Result<Option<CorruptionFinding>> {
        let Some(v) = self.views.get(view) else {
            return Ok(None);
        };
        let function = &entry.function;
        let profile = sdbms_exec::profile_table_column_for(
            &*v.store,
            &entry.attribute,
            &self.exec,
            function.accumulators(),
        );
        let fresh = match profile {
            Ok(p) => function.answer(&p),
            Err(e) if data_error_is_crash(&e) => return Err(e.into()),
            // The column itself is unreadable — page-level damage the
            // page phases report with better granularity; the entry
            // cannot be judged either way.
            Err(_) => return Ok(None),
        };
        match fresh {
            Ok(fresh) if !fresh.approx_eq(&entry.result, CROSS_CHECK_TOL) => {
                Ok(Some(CorruptionFinding {
                    view: view.to_string(),
                    component: Component::SummaryEntry,
                    page: None,
                    detail: format!(
                        "cached {function} of {:?} disagrees with recompute",
                        entry.attribute
                    ),
                }))
            }
            _ => Ok(None),
        }
    }

    // ---- repair ---------------------------------------------------------

    /// Detect, triage, and repair damage to one view, then verify and
    /// readmit it. Idempotent on a healthy view (a clean detection
    /// pass returns an empty report without entering repair). Repair
    /// admission is gated by the health registry's bounded-retry /
    /// backoff policy; the whole attempt runs under a durable `Repair`
    /// WAL intent so a crash mid-repair keeps the view degraded until
    /// a later attempt verifies clean.
    pub fn repair_view(&mut self, view: &str) -> Result<RepairReport> {
        self.view(view)?;
        // Repairs exclude writers (and the scrubber) on this view for
        // the whole detect → repair → verify span.
        let session = self.locks.session();
        let _lock = self.locks.acquire(session, &[view])?;
        let mut report = RepairReport {
            findings: self.detect_damage(view)?,
            ..RepairReport::default()
        };
        if report.findings.is_empty() && !self.health.is_impaired(view) {
            return Ok(report);
        }
        for f in &report.findings {
            self.health.mark_degraded(view, &f.to_string());
        }
        let now = self.env.injector.ops();
        self.health
            .begin_repair(view, now)
            .map_err(|gate| CoreError::RepairRefused {
                view: view.to_string(),
                gate,
            })?;
        if let Some(wal) = self.views.get(view).and_then(|v| v.wal.as_ref()) {
            wal.begin_repair()?;
        }
        match self.apply_repairs(view, &mut report) {
            Ok(()) => {}
            // A crash mid-repair: the Repair intent stays pending, so
            // recovery keeps the view degraded for a re-run.
            Err(e) if error_is_crash(&e) => return Err(e),
            Err(e) => {
                if !matches!(self.health.health(view), ViewHealth::Unrecoverable) {
                    let now = self.env.injector.ops();
                    self.health.repair_failed(view, now, &e.to_string());
                }
                return Err(e);
            }
        }
        // Verify: only a clean detection pass readmits the view.
        let leftover = self.detect_damage(view)?;
        if leftover.is_empty() {
            self.commit_intent(view)?;
            self.health.repair_succeeded(view);
            let detail = format!(
                "self-heal: repaired view ({} finding(s); {} zone map(s) rebuilt; \
                 store regenerated: {}; {} history record(s) replayed; \
                 summary reset: {})",
                report.findings.len(),
                report.zone_maps_rebuilt,
                report.store_regenerated,
                report.history_replayed,
                report.summary_reset,
            );
            self.record(view, [ChangeRecord::Recovery { detail }])?;
            Ok(report)
        } else {
            let now = self.env.injector.ops();
            let detail = leftover
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ");
            self.health.repair_failed(view, now, &detail);
            Err(CoreError::RepairIncomplete {
                view: view.to_string(),
                remaining: leftover.len(),
            })
        }
    }

    /// Checksum-verify every data and zone-map page and enumerate the
    /// Summary DB. Pure detection — no mutation.
    fn detect_damage(&self, view: &str) -> Result<Vec<CorruptionFinding>> {
        let mut findings = Vec::new();
        let v = self.view(view)?;
        for (component, pages) in [
            (Component::Segment, v.store.data_page_ids()),
            (Component::ZoneMap, v.store.zone_map_page_ids()),
        ] {
            for pid in pages {
                let mut page = Page::new();
                match self.env.disk.read_page(pid, &mut page) {
                    Ok(()) => {}
                    Err(e) if e.is_crash() => return Err(e.into()),
                    Err(e) => findings.push(CorruptionFinding {
                        view: view.to_string(),
                        component,
                        page: Some(u64::from(pid)),
                        detail: e.to_string(),
                    }),
                }
            }
        }
        match v.summary.all_entries() {
            Ok(_) => {}
            Err(e) if quarantinable(&e) => findings.push(CorruptionFinding {
                view: view.to_string(),
                component: Component::SummaryEntry,
                page: None,
                detail: format!("summary enumeration failed: {e}"),
            }),
            Err(e) => return Err(e.into()),
        }
        Ok(findings)
    }

    /// Apply the cheapest sound rung for each damaged component class.
    /// Each rung reads only from a source its damage cannot reach: zone
    /// maps from segment data, view data from the archive, summary
    /// entries from the (repaired) view.
    fn apply_repairs(&mut self, view: &str, report: &mut RepairReport) -> Result<()> {
        let has_data = report.findings.iter().any(|f| {
            matches!(
                f.component,
                Component::Cell | Component::Segment | Component::WholeView
            )
        });
        let has_zone = report
            .findings
            .iter()
            .any(|f| f.component == Component::ZoneMap);
        let has_summary = report
            .findings
            .iter()
            .any(|f| f.component == Component::SummaryEntry);
        // A view impaired with no locatable findings (typically after
        // an interrupted repair left half-swapped state) gets the most
        // conservative treatment: regenerate everything.
        let conservative = report.findings.is_empty();
        let mut need_store = has_data || conservative;
        let need_summary = has_summary || conservative;

        if has_zone && !need_store {
            // Cheapest rung: zone maps are pure derivations of the
            // (intact) segment data, rebuilt in a successor version.
            report
                .actions
                .push("rebuild zone maps from intact encoded segments".to_string());
            let rebuilt = self.edit(view, Derived::Fired, |_, next, _| {
                report.zone_maps_rebuilt += next.rebuild_zone_maps()?;
                Ok(())
            });
            match rebuilt {
                Err(e) if error_is_crash(&e) => return Err(e),
                // A segment the rebuild needs is itself unreadable:
                // the damage reaches above this rung, so escalate to
                // archive regeneration.
                Err(_) => need_store = true,
                Ok(_) => {}
            }
        }
        if need_store {
            report
                .actions
                .push("regenerate view from archive, replay update history".to_string());
            self.regenerate_store(view, report)?;
        }
        if need_summary {
            report
                .actions
                .push("recompute cached entries from view columns".to_string());
            let pool = self.env.pool.clone();
            let v = self.view_mut(view)?;
            v.summary = SummaryDb::create(pool)?;
            report.summary_reset = true;
        }
        Ok(())
    }

    /// Regenerate the view's store from the raw archive (authority:
    /// the Management-DB view definition over the raw database), then
    /// replay the view's recorded update history onto it — every
    /// record an edit through the same planner and applier that wrote
    /// it the first time — restoring the analyst's cleaning edits so
    /// the repaired view matches the pre-damage one byte for byte. An
    /// archive failure here is terminal: there is no sound source left.
    fn regenerate_store(&mut self, view: &str, report: &mut RepairReport) -> Result<()> {
        let def = self.catalog.view(view)?.definition.clone();
        let ds = match def.execute(&mut |name| resolve_source(&self.codebooks, &self.raw, name)) {
            Ok(ds) => ds,
            Err(e) if data_error_is_crash(&e) => return Err(e.into()),
            Err(e) => {
                let reason = format!("archive regeneration failed: {e}");
                self.health.mark_unrecoverable(view, &reason);
                return Err(CoreError::Unrecoverable {
                    view: view.to_string(),
                    reason,
                });
            }
        };
        let mut store = self.build_store(self.view(view)?.layout, &ds)?;
        // Replay the recorded history in order, each record one
        // statement through the edit pipeline. Cell updates re-apply
        // directly (rollbacks recorded their inverses, so replaying
        // the whole stream reproduces them too); column appends
        // re-derive from the column's maintenance rule; whole-vector
        // (Regenerate) columns are filled at the end, from the final
        // base data, exactly as live maintenance would have left them.
        let mut regenerate_at_end: Vec<(String, VectorGenerator)> = Vec::new();
        for (_, rec) in self.catalog.view(view)?.history.records() {
            let edit = match &rec {
                ChangeRecord::CellUpdate {
                    row,
                    attribute,
                    new,
                    ..
                } if store.schema().require(attribute).is_ok() && *row < store.len() => {
                    Edit::Cell(*row, attribute, new.clone())
                }
                ChangeRecord::RowAppended { values } => Edit::Row(values),
                // (A column already present is skipped: defensive.)
                ChangeRecord::ColumnAppended { attribute }
                    if store.schema().require(attribute).is_err() =>
                {
                    self.replay_column_append(view, &mut store, attribute, &mut regenerate_at_end)?;
                    report.history_replayed += 1;
                    continue;
                }
                _ => continue,
            };
            let plan = Plan::resolved(&*store, vec![edit])?;
            apply(&mut *store, plan, None)?;
            report.history_replayed += 1;
        }
        for (attr, generator) in &regenerate_at_end {
            let plan = Plan::column(&*store, attr, generator)?;
            apply(&mut *store, plan, None)?;
        }
        self.install(view, store, Ok(()))?;
        let v = self.view_mut(view)?;
        for (attr, _) in &regenerate_at_end {
            v.stale_columns.remove(attr);
        }
        report.store_regenerated = true;
        Ok(())
    }

    /// Re-append one derived column during history replay, deriving
    /// its initial values from the column's current maintenance rule
    /// (row-local expressions re-evaluate against the replayed store
    /// state at append time; whole-vector generators are deferred to
    /// the end of the replay; rules with no generator come back as
    /// missing and are refilled by the recorded cell updates).
    fn replay_column_append(
        &self,
        view: &str,
        store: &mut Box<dyn TableStore + Send + Sync>,
        attribute: &str,
        regenerate_at_end: &mut Vec<(String, VectorGenerator)>,
    ) -> Result<()> {
        // The live schema survives in memory even when the data pages
        // are damaged, so it is the best source for the attribute's
        // declared shape.
        let attr: Attribute = self
            .views
            .get(view)
            .and_then(|v| v.store.schema().attribute(attribute).ok().cloned())
            .unwrap_or_else(|| Attribute::derived(attribute, DataType::Float));
        let rule = self.rules.rule(view, attribute).ok();
        let now = match rule {
            Some(DerivedRule::Regenerate { generator }) => {
                regenerate_at_end.push((attribute.to_string(), generator.clone()));
                None
            }
            _ => rule.and_then(DerivedRule::generator),
        };
        let values = derived_column(&**store, now.as_ref(), attr.dtype)?;
        store.add_column(attr, values)?;
        Ok(())
    }

    // ---- degraded reads -------------------------------------------------

    /// Serve a read of an impaired view straight from the raw archive
    /// ([`archive_column`]) and compute. The Summary DB is never
    /// consulted and never written — a [`ComputeSource::Fallback`]
    /// result must not be cached while the view is suspect.
    pub(crate) fn compute_degraded(
        &self,
        view: &str,
        attribute: &str,
        function: &StatFunction,
    ) -> Result<(SummaryValue, ComputeSource)> {
        let schema = self.view(view)?.store.schema();
        let attr = summarizable(schema, attribute, function)?;
        let col = archive_column(
            self.catalog.view(view)?,
            &self.codebooks,
            &self.raw,
            schema,
            &attr.name,
        )?;
        Ok((function.compute(&col)?, ComputeSource::Fallback))
    }
}

/// The one archive-fallback column builder: `attribute` of a view as
/// the raw archive plus the Management DB describe it — re-execute the
/// view definition, then replay the recorded cleaning history of that
/// attribute (cell edits, batch-appended rows) so the analyst's edits
/// survive the loss of the concrete view. `schema` is the live view's
/// (it survives in memory when the data pages do not).
pub(crate) fn archive_column(
    record: &ViewRecord,
    codebooks: &HashMap<String, CodeBook>,
    raw: &RawDatabase,
    schema: &Schema,
    attribute: &str,
) -> std::result::Result<Vec<Value>, DataError> {
    let ds = record
        .definition
        .execute(&mut |name| resolve_source(codebooks, raw, name))?;
    let mut col: Vec<Value> = ds.column(attribute)?.cloned().collect();
    let ci = schema.require(attribute)?;
    for (_, rec) in record.history.records() {
        match rec {
            ChangeRecord::CellUpdate {
                row,
                attribute: a,
                new,
                ..
            } if a == attribute && row < col.len() => {
                col[row] = new;
            }
            // Batch-appended rows are not in the archive-derived
            // data set; extend the column from the recorded values
            // (schema order at append time).
            ChangeRecord::RowAppended { values } => {
                col.push(values.get(ci).cloned().unwrap_or(Value::Missing));
            }
            _ => {}
        }
    }
    Ok(col)
}
