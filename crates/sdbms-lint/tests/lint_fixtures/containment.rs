//! Known-bad fixture: names that live in one place, used in another.
//! Linted as if it were `crates/sdbms-core/src/dbms.rs`. Expected
//! findings (see ../fixtures.rs):
//!   line 13  edit-pipeline-bypass  (.set_cell outside edit.rs)
//!   line 14  edit-pipeline-bypass  (wal.begin outside edit.rs)
//!   line 15  edit-pipeline-bypass  (.set_cells outside edit.rs)
//!   line 21  evaluator-twin        (fn get_or_compute is back)
//!   line 22  evaluator-twin        (compute_from_profile is back)

/// Fixes one cell on the side: no plan, no records, and an intent the
/// writer prologue never sees.
pub fn quick_fix(next: &mut dyn TableStore, wal: &IntentLog) -> Result<()> {
    next.set_cell(0, "AGE", Value::Int(30))?;
    wal.begin(&["AGE".to_string()])?;
    next.set_cells("AGE", &[(1, Value::Int(31))], &mut Vec::new())?;
    Ok(())
}

/// A cache-only lookup that skips quarantine, over a second evaluator.
/// (`get_or_compute_resilient` and the string "aux_from_profile" are fine.)
pub fn get_or_compute(db: &SummaryDb, p: &ColumnProfile) -> Result<SummaryValue> {
    compute_from_profile(&StatFunction::Mean, p)
}
