//! One key, one answer: whichever route fills or serves
//! `function(attribute)` over a stored column — summary warm-up, a cold
//! `StatDbms::compute` miss, a pinned `Snapshot`, a `Server` miss — the
//! `SummaryValue` bytes are the
//! same, at every worker count, and equal to `StatFunction::compute`
//! over the decoded column. Every route is a batch scan into a profile
//! handed to the one evaluator, so there is nothing left to drift.
//!
//! One edit, one outcome: whichever route applies a list of cleaning
//! ops — statement by statement in place, as one shadow-committed
//! batch, or undone and redone — the store bytes and the history are
//! the same, the Summary DB holds the same entries and agrees with the
//! column. Every route is plan → apply → epilogue through the one edit
//! pipeline, and a batch maintains exactly what it edits.

use sdbms::core::{
    AccuracyPolicy, BatchOp, BinOp, CmpOp, ComputeSource, Expr, Predicate, StatDbms, StatFunction,
    UpdateReport,
};
use sdbms::data::Value;
use sdbms::management::ChangeRecord;
use sdbms::serve::{Payload, Query, ServeConfig, Served, Server};
use sdbms::summary::{standing_summary_functions, AuxState, Freshness};
use sdbms_testkit::{agrees, seeded_income_update, splitmix, CensusFixture, CENSUS_VIEW as V};

const ROWS: usize = 20_000;

fn functions() -> Vec<StatFunction> {
    let mut fns = standing_summary_functions();
    fns.extend([
        StatFunction::Sum,
        StatFunction::Variance,
        StatFunction::StdDev,
        StatFunction::TrimmedMean(50, 950),
    ]);
    fns.extend([50, 250, 500, 750, 950].map(StatFunction::Quantile));
    fns
}

fn numeric_attributes(dbms: &StatDbms) -> Vec<String> {
    let view = dbms.view(V).expect("view");
    let attrs = view.store.schema().attributes().iter();
    attrs
        .filter(|a| a.is_summarizable())
        .map(|a| a.name.clone())
        .collect()
}

/// A cold 20 000-row census view. The pool is far smaller than the
/// view, so every route really reads the device.
fn cold_dbms(workers: usize) -> StatDbms {
    let mut dbms = CensusFixture::new()
        .rows(ROWS)
        .warm(false)
        .crash_consistent(false)
        .build()
        .expect("fixture");
    dbms.set_workers(workers);
    dbms
}

/// The same cleaning edit on every numeric attribute (AGE last: it is
/// the predicate's own column), so every route reads edited data.
fn edit_every_attribute(dbms: &mut StatDbms, attrs: &[String]) {
    let elderly = Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(85i64));
    let mut order: Vec<&String> = attrs.iter().filter(|a| *a != "AGE").collect();
    order.extend(attrs.iter().filter(|a| *a == "AGE"));
    for attr in order {
        let bump = Expr::col(attr).binary(BinOp::Add, Expr::lit(1i64));
        let report = dbms
            .update_where(V, &elderly, &[(attr.as_str(), bump)])
            .expect("edit");
        assert!(
            report.cells_changed > 0,
            "{attr}: the edit must change data"
        );
    }
}

/// The stored entry of `function(attr)`: result bytes and aux state.
fn stored(dbms: &StatDbms, attr: &str, f: &StatFunction) -> Option<(Vec<u8>, Option<AuxState>)> {
    let entry = dbms.view(V).expect("view").summary.lookup_fresh(attr, f);
    entry.expect("lookup").map(|e| (e.result.encode(), e.aux))
}

#[test]
fn every_route_serves_the_same_bytes_for_the_same_key() {
    let fns = functions();
    let mut compared = 0usize;
    for workers in [1, 4] {
        // Route: warm-up. The standing set through the engine's own
        // warm-up, the rest through the same scan → warm_attribute
        // pair it is made of.
        let mut warm = cold_dbms(workers);
        let attrs = numeric_attributes(&warm);
        assert!(attrs.iter().any(|a| a == "INCOME") && attrs.len() >= 3);
        edit_every_attribute(&mut warm, &attrs);
        warm.warm_standing_summaries(V).expect("warm");
        for attr in &attrs {
            let (view, exec) = (warm.view(V).expect("view"), warm.exec_config());
            let mut scan = |feeds| {
                sdbms::exec::profile_table_column_for(&*view.store, attr, &exec, feeds)
                    .map_err(sdbms::summary::SummaryError::Data)
            };
            sdbms::summary::warm_attribute(&view.summary, attr, &fns, &mut scan).expect("warm");
        }

        // Routes: cold miss, pinned snapshot, served miss — all on one
        // more identically edited engine.
        let mut miss = cold_dbms(workers);
        edit_every_attribute(&mut miss, &attrs);
        let snapshot = miss.snapshot(V).expect("snapshot");
        let columns: Vec<_> = attrs
            .iter()
            .map(|a| miss.column(V, a).expect("column"))
            .collect();
        let mut served_dbms = cold_dbms(workers);
        edit_every_attribute(&mut served_dbms, &attrs);
        let server = Server::start(served_dbms, ServeConfig::default());
        let session = server.open_session("routes", V).expect("session");

        for (attr, column) in attrs.iter().zip(&columns) {
            for f in &fns {
                let Ok(oracle) = f.compute(column) else {
                    panic!("{f}({attr}): the census columns support every function");
                };
                let want = oracle.encode();
                let key = format!("{f}({attr}) @ {workers} workers");

                let (value, source) = miss
                    .compute(V, attr, f, AccuracyPolicy::Exact)
                    .expect("miss");
                assert_eq!(source, ComputeSource::Computed, "{key}");
                assert_eq!(value.encode(), want, "cold miss: {key}");
                let (miss_bytes, miss_aux) = stored(&miss, attr, f).expect("miss entry");
                assert_eq!(miss_bytes, want, "stored miss: {key}");

                let (warm_bytes, warm_aux) = stored(&warm, attr, f).expect("warm entry");
                assert_eq!(warm_bytes, want, "warm-up: {key}");
                assert_eq!(warm_aux, miss_aux, "aux state, warm vs miss: {key}");

                let (pinned, source) = snapshot.compute(attr, f).expect("snapshot");
                assert_eq!(source, ComputeSource::Computed, "{key}");
                assert_eq!(pinned.encode(), want, "snapshot: {key}");

                let reply = server
                    .query(session, Query::summary(attr, f.clone()))
                    .expect("served");
                assert_eq!(reply.served, Served::Computed, "{key}");
                let Payload::Summary(value) = &reply.payload else {
                    panic!("{key}: summary query, summary payload");
                };
                assert_eq!(value.encode(), want, "server miss: {key}");
                compared += 1;
            }
        }
    }
    println!("route agreement: {compared} keys × 4 routes, byte-identical");
}

/// Rows of the write-route view: five segments per column.
const WRITE_ROWS: usize = 1_200;

/// 31 seeded cleaning ops: income bumps by age, single-cell
/// corrections — half of them to the very column those predicates
/// read — and one broad recode in the middle.
fn cleaning_ops() -> Vec<BatchOp> {
    let mut state = 0x5EED_0020_u64;
    let mut ops = Vec::new();
    for k in 0..10i64 {
        ops.push(seeded_income_update(&mut state).batch_op());
        for (attribute, value) in [("AGE", 21 + 5 * k), ("HOURS_WORKED", 30 + k)] {
            ops.push(BatchOp::SetCell {
                row: (splitmix(&mut state) % WRITE_ROWS as u64) as usize,
                attribute: attribute.to_string(),
                value: Value::Int(value),
            });
        }
    }
    let overtime = Predicate::cmp(Expr::col("HOURS_WORKED"), CmpOp::Gt, Expr::lit(40i64));
    let capped = Expr::col("HOURS_WORKED").binary(BinOp::Sub, Expr::lit(2i64));
    ops.insert(
        ops.len() / 2,
        BatchOp::UpdateWhere {
            predicate: overtime,
            assignments: vec![("HOURS_WORKED".to_string(), capped)],
        },
    );
    ops
}

/// A warmed view for the write routes.
fn clean_dbms(workers: usize) -> StatDbms {
    let mut dbms = CensusFixture::new()
        .rows(WRITE_ROWS)
        .warm(false)
        .build()
        .expect("fixture");
    dbms.set_workers(workers);
    dbms.warm_standing_summaries(V).expect("warm");
    dbms
}

/// Route (i): every op its own in-place statement. A staged cell is
/// the one-row statement `attribute := value where PERSON_ID = id`.
fn apply_in_place(dbms: &mut StatDbms, ops: &[BatchOp], ids: &[Value]) {
    for op in ops {
        let (predicate, assignments) = match op {
            BatchOp::UpdateWhere {
                predicate,
                assignments,
            } => (predicate.clone(), assignments.clone()),
            BatchOp::SetCell {
                row,
                attribute,
                value,
            } => (
                Predicate::cmp(
                    Expr::col("PERSON_ID"),
                    CmpOp::Eq,
                    Expr::Literal(ids[*row].clone()),
                ),
                vec![(attribute.clone(), Expr::Literal(value.clone()))],
            ),
            BatchOp::AppendRow { .. } => unreachable!("the cleaning list appends nothing"),
        };
        let assignments: Vec<(&str, Expr)> = assignments
            .iter()
            .map(|(a, e)| (a.as_str(), e.clone()))
            .collect();
        dbms.update_where(V, &predicate, &assignments)
            .expect("statement");
    }
}

/// Route (ii): the whole list as one shadow-committed batch.
fn apply_as_batch(dbms: &mut StatDbms, ops: &[BatchOp]) -> UpdateReport {
    let batch = dbms.begin_batch(V).expect("begin");
    for op in ops {
        dbms.batch_stage(batch, op.clone()).expect("stage");
    }
    dbms.commit_batch(batch).expect("commit")
}

/// What the Summary DB holds, entry by entry: attribute, function,
/// freshness, result bytes, aux state.
type Held = (String, String, Freshness, Vec<u8>, Option<AuxState>);

fn held_entries(dbms: &StatDbms) -> Vec<Held> {
    let entries = dbms.view(V).expect("view").summary.all_entries();
    let held = |e: sdbms::summary::Entry| {
        let function = e.function.to_string();
        (e.attribute, function, e.freshness, e.result.encode(), e.aux)
    };
    entries.expect("entries").into_iter().map(held).collect()
}

/// Encoded bytes of every segment of every column.
fn segment_bytes(dbms: &StatDbms) -> Vec<(String, usize, Vec<u8>)> {
    let store = &dbms.view(V).expect("view").store;
    let mut out = Vec::new();
    for a in store.schema().attributes() {
        assert!(store.segment_count(&a.name) >= WRITE_ROWS / 256);
        for i in 0..store.segment_count(&a.name) {
            let bytes = store.encoded_segment(&a.name, i).expect("segment");
            out.push((a.name.clone(), i, bytes.expect("segmented layout")));
        }
    }
    out
}

/// The cell updates a view's history holds, in order.
fn recorded_cell_updates(dbms: &StatDbms) -> Vec<ChangeRecord> {
    let history = &dbms.catalog().view(V).expect("catalog").history;
    history
        .records()
        .map(|(_, r)| r)
        .filter(|r| matches!(r, ChangeRecord::CellUpdate { .. }))
        .collect()
}

/// Every standing summary of every numeric attribute, as served, must
/// agree with a from-scratch evaluation of the column as stored, by
/// `sdbms_testkit::agrees`: 1e-9 for entries that absorbed deltas
/// incrementally, and a histogram against the column binned into the
/// edges it was built with.
fn assert_cache_agrees(dbms: &mut StatDbms, route: &str) -> usize {
    let mut checked = 0;
    for attr in numeric_attributes(dbms) {
        let column = dbms.column(V, &attr).expect("column");
        for f in standing_summary_functions() {
            let want = f.compute(&column).expect("oracle");
            let (served, _) = dbms
                .compute(V, &attr, &f, AccuracyPolicy::Exact)
                .expect("compute");
            assert!(
                agrees(&f, &served, &column),
                "{route}: {f}({attr}): {served:?} vs {want:?}"
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn every_write_route_leaves_the_same_store_history_and_cache() {
    let ops = cleaning_ops();
    assert!(ops.len() >= 30);
    let mut checked = 0usize;
    for workers in [1, 4] {
        let mut in_place = clean_dbms(workers);
        let ids = in_place.column(V, "PERSON_ID").expect("ids");
        let untouched = segment_bytes(&in_place);
        apply_in_place(&mut in_place, &ops, &ids);
        let want = segment_bytes(&in_place);
        assert!(want != untouched, "the list must change data");
        let history = recorded_cell_updates(&in_place);
        assert!(history.len() > ops.len());
        let held = held_entries(&in_place);
        checked += assert_cache_agrees(&mut in_place, "in place");

        let mut batched = clean_dbms(workers);
        let report = apply_as_batch(&mut batched, &ops);
        let key = format!("{workers} workers");
        assert!(segment_bytes(&batched) == want, "batch bytes: {key}");
        assert!(
            recorded_cell_updates(&batched) == history,
            "batch history: {key}"
        );
        // The same records drove the same rules: the cache holds what
        // the in-place route left, entry for entry.
        let batch_held = held_entries(&batched);
        assert_eq!(batch_held.len(), held.len(), "entries: {key}");
        for (got, want) in batch_held.iter().zip(&held) {
            assert_eq!(got, want, "entry {}({}): {key}", want.1, want.0);
        }
        assert!(report.maintenance.incremental > 0, "{key}: {report:?}");
        let (_, source) = batched
            .compute(V, "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
            .expect("mean");
        assert_eq!(source, ComputeSource::Cache, "maintained entry: {key}");
        checked += assert_cache_agrees(&mut batched, "batch");

        // Undo the batch in place, then redo it statement by
        // statement: rollback is one more in-place writer.
        let mut redone = batched;
        redone.rollback_to(V, 0).expect("rollback");
        assert!(segment_bytes(&redone) == untouched, "undo bytes: {key}");
        checked += assert_cache_agrees(&mut redone, "undone");
        apply_in_place(&mut redone, &ops, &ids);
        assert!(segment_bytes(&redone) == want, "redo bytes: {key}");
        checked += assert_cache_agrees(&mut redone, "redone");
    }
    println!(
        "write-route agreement: {} ops × 3 routes, {checked} summaries checked",
        ops.len()
    );
}

/// The standing summaries of `attr` that are still fresh in the cache.
fn fresh_standing(dbms: &StatDbms, attr: &str) -> usize {
    let summary = &dbms.view(V).expect("view").summary;
    let fresh = |f: &StatFunction| summary.lookup_fresh(attr, f).expect("lookup").is_some();
    standing_summary_functions()
        .iter()
        .filter(|f| fresh(f))
        .count()
}

fn column_reads(dbms: &StatDbms) -> u64 {
    dbms.view(V).expect("view").tracker.column_reads
}

/// Five corrections to INCOME, as one batch: the cache ends up exactly
/// as five in-place statements leave it, and AGE's entries are not
/// touched at all. INCOME's entries take the one maintenance rule: an
/// entry with auxiliary state is served from the cache after the
/// commit, one without is stale until the next exact read. The first
/// input overwrites no extreme of the column, so nothing is scanned.
/// The second overwrites INCOME's max and min, so Min and Max give up,
/// and the commit recomputes them from one scan shared by every entry
/// that gave up.
#[test]
fn a_batch_maintains_the_attribute_it_edits_and_no_other() {
    let standing = standing_summary_functions();
    for extremes in [false, true] {
        let mut batched = clean_dbms(1);
        let mut in_place = clean_dbms(1);
        let ids = in_place.column(V, "PERSON_ID").expect("ids");
        let income = batched.column(V, "INCOME").expect("income");
        let numbers = || income.iter().filter_map(Value::as_f64);
        let (lo, hi) = (
            numbers().fold(f64::MAX, f64::min),
            numbers().fold(f64::MIN, f64::max),
        );
        let interior = |row: &usize| income[*row].as_f64().is_some_and(|x| lo < x && x < hi);
        // Each interior row takes another row's value; each extreme row
        // takes the next interior value after it.
        let correction = |row: usize| {
            let donor = if interior(&row) {
                (row + 7) % WRITE_ROWS
            } else {
                let mut next = (row + 1..).map(|r| r % WRITE_ROWS);
                next.find(&interior).expect("an interior value")
            };
            BatchOp::SetCell {
                row,
                attribute: "INCOME".to_string(),
                value: income[donor].clone(),
            }
        };
        let mut rows: Vec<usize> = Vec::new();
        if extremes {
            let extreme = |row: &usize| income[*row].as_f64().is_some_and(|x| x == lo || x == hi);
            rows.extend((0..WRITE_ROWS).filter(extreme));
            assert!((2..=5).contains(&rows.len()), "{rows:?}: max and min");
        }
        let filler = (0..WRITE_ROWS).step_by(211).filter(interior);
        rows.extend(filler.take(5 - rows.len()));
        let ops: Vec<BatchOp> = rows.into_iter().map(correction).collect();
        assert_eq!(ops.len(), 5);
        assert_eq!(fresh_standing(&batched, "AGE"), standing.len(), "warm view");
        let has_aux =
            |f: &StatFunction| stored(&batched, "INCOME", f).is_some_and(|e| e.1.is_some());
        let maintained: Vec<StatFunction> =
            standing.iter().filter(|f| has_aux(f)).cloned().collect();
        assert!(maintained.contains(&StatFunction::Min) && maintained.contains(&StatFunction::Max));

        let scans = column_reads(&batched);
        let report = apply_as_batch(&mut batched, &ops);
        apply_in_place(&mut in_place, &ops, &ids);
        let key = if extremes { "max and min" } else { "interior" };
        assert!(report.cells_changed > 0, "{key}");
        assert_eq!(held_entries(&batched), held_entries(&in_place), "{key}");
        let done = report.maintenance;
        assert!(done.incremental > 0, "{key}: {done:?}");
        if extremes {
            assert!(done.recomputed >= 2, "{key}: {done:?}");
            assert_eq!(
                column_reads(&batched),
                scans + 1,
                "{key}: one scan feeds all"
            );
        } else {
            assert_eq!(done.recomputed, 0, "{key}: {done:?}");
            assert_eq!(column_reads(&batched), scans, "{key}: no column scan");
        }
        assert_eq!(
            fresh_standing(&batched, "INCOME"),
            maintained.len(),
            "{key}"
        );
        for f in &standing {
            let (_, source) = batched
                .compute(V, "INCOME", f, AccuracyPolicy::Exact)
                .expect("income");
            let want = if maintained.contains(f) {
                ComputeSource::Cache
            } else {
                ComputeSource::Computed
            };
            assert_eq!(source, want, "{key}: {f}(INCOME)");
        }
        assert_eq!(fresh_standing(&batched, "AGE"), standing.len(), "{key}");
        for f in &standing {
            let (_, source) = batched
                .compute(V, "AGE", f, AccuracyPolicy::Exact)
                .expect("age");
            assert_eq!(source, ComputeSource::Cache, "{key}: {f}(AGE)");
        }
        assert_cache_agrees(&mut batched, key);
    }
}

/// The planner's predicate scans reach the access tracker on both
/// routes, and so does the one scan maintenance takes when an entry's
/// auxiliary state gives up. The edit is to INCOME alone, so that is
/// the planner's two scans plus at most one.
#[test]
fn the_batch_route_feeds_the_access_tracker() {
    let mut in_place = clean_dbms(1);
    let mut batched = clean_dbms(1);
    let predicate = Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(40i64)).and(
        Predicate::cmp(Expr::col("HOURS_WORKED"), CmpOp::Gt, Expr::lit(35i64)),
    );
    let raise = Expr::col("INCOME").binary(BinOp::Add, Expr::lit(1i64));
    let scans = column_reads(&in_place);
    assert_eq!(column_reads(&batched), scans);

    let report = in_place
        .update_where(V, &predicate, &[("INCOME", raise.clone())])
        .expect("statement");
    assert!(report.cells_changed > 0);
    let rescans = |r: &UpdateReport| u64::from(r.maintenance.recomputed > 0);
    let want = scans + 2 + rescans(&report);
    assert_eq!(column_reads(&in_place), want, "in place");

    let batch = batched.begin_batch(V).expect("begin");
    batched
        .batch_update_where(batch, &predicate, &[("INCOME", raise)])
        .expect("stage");
    let report = batched.commit_batch(batch).expect("commit");
    assert_eq!(
        column_reads(&batched),
        scans + 2 + rescans(&report),
        "batch"
    );
}

/// An appended row is not a cell update, and `UpdateDelta` cannot say
/// "insert": a batch that appends retires every attribute's entries
/// rather than maintain them, so nothing — the frequency family
/// (Count, Mode, UniqueCount: all in the standing set) least of all —
/// is served from an entry that missed the new row.
#[test]
fn an_appended_row_retires_every_attributes_entries() {
    let mut dbms = clean_dbms(1);
    let elderly = Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(80i64));
    let blanked = dbms.invalidate_where(V, &elderly, "INCOME").expect("blank");
    assert!(blanked.cells_changed > 0, "the view has missing cells");
    let fns = standing_summary_functions();
    let attrs = numeric_attributes(&dbms);
    for attr in &attrs {
        for f in &fns {
            dbms.compute(V, attr, f, AccuracyPolicy::Exact)
                .expect("warm");
        }
    }
    let income = dbms.view(V).expect("view").store.schema().require("INCOME");
    let income = income.expect("INCOME");
    let with_income = dbms.row(V, 0).expect("row");
    let mut without = dbms.row(V, 1).expect("row");
    without[income] = Value::Missing;

    let batch = dbms.begin_batch(V).expect("begin");
    dbms.batch_append_row(batch, with_income).expect("stage");
    dbms.batch_append_row(batch, without).expect("stage");
    dbms.batch_set_cell(batch, 3, "AGE", Value::Int(33))
        .expect("stage");
    let report = dbms.commit_batch(batch).expect("commit");
    assert_eq!(report.maintenance.incremental, 0, "{report:?}");
    assert_eq!(report.maintenance.invalidated, attrs.len() * fns.len());

    for attr in &attrs {
        let column = dbms.column(V, attr).expect("column");
        assert_eq!(column.len(), WRITE_ROWS + 2);
        for f in &fns {
            let (served, source) = dbms
                .compute(V, attr, f, AccuracyPolicy::Exact)
                .expect("compute");
            assert_eq!(source, ComputeSource::Computed, "{f}({attr})");
            let want = f.compute(&column).expect("oracle");
            assert_eq!(served.encode(), want.encode(), "{f}({attr})");
        }
    }
}
