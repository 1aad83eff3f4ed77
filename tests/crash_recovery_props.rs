//! Property-based crash-recovery tests: wherever a crash lands inside
//! an update's durable section, recovery must leave the Summary
//! Database consistent with whatever cell state actually survived on
//! disk — served summaries always equal a from-scratch recompute of
//! the post-recovery column.

use proptest::prelude::*;

use sdbms::core::{
    AccuracyPolicy, BinOp, CmpOp, ComputeSource, Expr, Predicate, StatDbms, StatFunction,
    ViewHealth,
};
use sdbms::data::Value;
use sdbms::management::ChangeRecord;
use sdbms::storage::FaultPlan;
use sdbms_testkit::{checked_functions as functions, CensusFixture, CENSUS_ATTRS as ATTRS};

/// A crash-consistent DBMS over a small census view with warm caches —
/// the testkit fixture at this harness's historical sizing.
fn setup() -> StatDbms {
    CensusFixture::new()
        .rows(60)
        .pool_pages(192)
        .owner("props")
        .build()
        .expect("fixture")
}

/// Every summary the recovered DBMS serves must match a recompute of
/// the column it now actually holds.
fn assert_consistent(dbms: &mut StatDbms) -> Result<(), TestCaseError> {
    for a in ATTRS {
        let col = dbms.column("v", a).expect("post-recovery column");
        for f in functions() {
            let (served, _) = dbms
                .compute("v", a, &f, AccuracyPolicy::Exact)
                .expect("post-recovery compute");
            let fresh = f.compute(&col).expect("recompute");
            prop_assert!(
                served.approx_eq(&fresh, 1e-9),
                "{f:?}({a}) served {served} != recompute {fresh}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn crash_anywhere_in_an_update_recovers_to_a_consistent_cache(
        crash_offset in 1u64..140,
        threshold in 18i64..60,
        bump in 1i64..400,
        preludes in prop::collection::vec((20i64..55, 1i64..200), 0..3)
    ) {
        let mut dbms = setup();

        // Some committed updates first, so the crash can land on a view
        // whose durable state already diverged from materialization.
        for (t, b) in preludes {
            dbms.update_where(
                "v",
                &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(t)),
                &[("INCOME", Expr::col("INCOME").binary(BinOp::Add, Expr::lit(b)))],
            )
            .expect("prelude update");
        }

        // Crash at an arbitrary I/O operation inside the next update's
        // durable section (intent write, cell writes, maintenance,
        // commit flush — wherever `crash_offset` lands).
        let ops = dbms.env().injector.ops();
        dbms.env().injector.set_plan(FaultPlan {
            seed: crash_offset,
            crash_at_op: Some(ops + crash_offset),
            ..FaultPlan::none()
        });
        let outcome = dbms.update_where(
            "v",
            &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(threshold)),
            &[("INCOME", Expr::col("INCOME").binary(BinOp::Mul, Expr::lit(bump)))],
        );

        dbms.env().injector.set_plan(FaultPlan::none());
        if dbms.is_crashed() {
            prop_assert!(outcome.is_err(), "a crash must abort the update");
            dbms.recover().expect("recover on healthy hardware");
        }
        // If the op budget outlived the update, the update committed
        // normally — consistency must hold either way.
        assert_consistent(&mut dbms)?;
    }

    #[test]
    fn recovery_is_idempotent(crash_offset in 1u64..80) {
        let mut dbms = setup();
        let ops = dbms.env().injector.ops();
        dbms.env().injector.set_plan(FaultPlan {
            seed: 9,
            crash_at_op: Some(ops + crash_offset),
            ..FaultPlan::none()
        });
        let _ = dbms.update_where(
            "v",
            &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(30i64)),
            &[("INCOME", Expr::col("INCOME").binary(BinOp::Add, Expr::lit(7i64)))],
        );
        dbms.env().injector.set_plan(FaultPlan::none());
        if dbms.is_crashed() {
            dbms.recover().expect("first recovery");
        }
        // A second recovery finds no pending intent and changes nothing.
        let again = dbms.recover().expect("second recovery");
        prop_assert!(again.views_recovered.is_empty(), "no intent left: {again:?}");
        assert_consistent(&mut dbms)?;
    }

    /// A crash at *any* I/O operation inside `repair_view` — during
    /// detection, archive regeneration, history replay, the summary
    /// reset, or the verification pass — must recover to a consistent
    /// DBMS: the interrupted repair's durable intent keeps the view
    /// suspect, and a re-run repair restores it to `Healthy` with
    /// summaries matching a from-scratch recompute.
    #[test]
    fn crash_anywhere_during_repair_recovers_consistent(
        crash_offset in 1u64..400,
        threshold in 18i64..60,
        bump in 1i64..400,
        page_pick in any::<prop::sample::Index>(),
        bit in 0usize..(8 * 512),
    ) {
        let mut dbms = setup();
        // An analyst edit, so the repair has history to replay.
        dbms.update_where(
            "v",
            &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(threshold)),
            &[("INCOME", Expr::col("INCOME").binary(BinOp::Add, Expr::lit(bump)))],
        )
        .expect("edit");
        // Damage one data page on disk.
        dbms.env().pool.flush_all().expect("flush");
        let pages = dbms.view("v").expect("view").store.data_page_ids();
        prop_assert!(!pages.is_empty());
        let pid = pages[page_pick.index(pages.len())];
        dbms.env().disk.corrupt_page(pid, bit).expect("corrupt");

        // Crash at an arbitrary operation inside the repair.
        let ops = dbms.env().injector.ops();
        dbms.env().injector.set_plan(FaultPlan {
            seed: crash_offset,
            crash_at_op: Some(ops + crash_offset),
            ..FaultPlan::none()
        });
        let outcome = dbms.repair_view("v");
        dbms.env().injector.set_plan(FaultPlan::none());
        if dbms.is_crashed() {
            prop_assert!(outcome.is_err(), "a crash must abort the repair");
            dbms.recover().expect("recover on healthy hardware");
            dbms.repair_view("v").expect("re-run the interrupted repair");
        } else {
            // The op budget outlived the repair: it must have succeeded.
            outcome.expect("repair without a crash");
        }
        prop_assert_eq!(dbms.health("v").expect("health"), ViewHealth::Healthy);
        assert_consistent(&mut dbms)?;
    }

    /// The batch-commit acceptance property: a crash at *any* I/O
    /// operation inside `commit_batch` recovers **all-or-nothing** —
    /// the post-recovery column equals either the exact pre-batch
    /// state or the exact post-batch state (computed by a fault-free
    /// twin running the identical batch), never a mix of the two —
    /// and recovery is idempotent. The offset is drawn three ways, each
    /// scaled to the twin's measured operation count: in the commit's
    /// first four sevenths (clone, apply), in the rest, counted back
    /// from its last operation (durability flush, install, the
    /// epilogue's Summary-DB maintenance, intent retire), or anywhere.
    /// The first two regimes together cover every operation. Each runs
    /// with and without an appended row, because an append retires the
    /// cache where cell updates maintain it.
    #[test]
    fn crash_anywhere_in_a_batch_commit_recovers_all_or_nothing(
        pick in any::<u64>(),
        regime in 0usize..3,
        append in any::<bool>(),
        threshold in 18i64..60,
        bump in 1i64..400,
        row in 0usize..60,
        preludes in prop::collection::vec((20i64..55, 1i64..200), 0..2)
    ) {
        use sdbms::data::Value;
        let mut primary = setup();
        let mut twin = setup();
        for (t, b) in &preludes {
            for dbms in [&mut primary, &mut twin] {
                dbms.update_where(
                    "v",
                    &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(*t)),
                    &[("INCOME", Expr::col("INCOME").binary(BinOp::Add, Expr::lit(*b)))],
                )
                .expect("prelude update");
            }
        }
        let pre = primary.column("v", "INCOME").expect("pre-batch column");
        prop_assert_eq!(&pre, &twin.column("v", "INCOME").expect("twin pre"));
        let template = primary.snapshot("v").expect("snapshot").row(0).expect("row");
        let poke = match &pre[row] {
            Value::Int(i) => Value::Int(i + 11),
            Value::Float(f) => Value::Float(f + 11.0),
            other => other.clone(),
        };
        let pred = Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(threshold));
        let assign = Expr::col("INCOME").binary(BinOp::Add, Expr::lit(bump));

        // The fault-free twin computes the exact post-batch state,
        // and how many operations the identical commit takes.
        let tb = twin.begin_batch("v").expect("twin batch");
        twin.batch_update_where(tb, &pred, &[("INCOME", assign.clone())]).expect("stage");
        twin.batch_set_cell(tb, row, "INCOME", poke.clone()).expect("stage");
        if append {
            twin.batch_append_row(tb, template.clone()).expect("stage");
        }
        let twin_ops = twin.env().injector.ops();
        twin.commit_batch(tb).expect("fault-free commit");
        let total = twin.env().injector.ops() - twin_ops;
        // At least one operation on each side of the split below.
        prop_assert!(total >= 2, "a commit is {} operations", total);
        let post = twin.column("v", "INCOME").expect("post-batch column");

        // Crash the primary at an arbitrary I/O op inside its commit
        // (shadow clone, cell writes, the durability flush, Summary-DB
        // maintenance on the installed store, the intent retire):
        // offsets 1..=head, head+1..=total, or 1..=total.
        let head = total * 4 / 7;
        let crash_offset = match regime {
            0 => 1 + pick % head,
            1 => total - pick % (total - head),
            _ => 1 + pick % total,
        };
        let ops = primary.env().injector.ops();
        primary.env().injector.set_plan(FaultPlan {
            seed: crash_offset,
            crash_at_op: Some(ops + crash_offset),
            ..FaultPlan::none()
        });
        let b = primary.begin_batch("v").expect("begin does no I/O");
        primary.batch_update_where(b, &pred, &[("INCOME", assign)]).expect("staging does no I/O");
        primary.batch_set_cell(b, row, "INCOME", poke).expect("staging does no I/O");
        if append {
            primary.batch_append_row(b, template).expect("staging does no I/O");
        }
        let outcome = primary.commit_batch(b);

        primary.env().injector.set_plan(FaultPlan::none());
        if primary.is_crashed() {
            prop_assert!(outcome.is_err(), "a crash must abort the commit");
            primary.recover().expect("recover on healthy hardware");
        } else {
            outcome.expect("the op budget outlived the commit");
        }
        let after = primary.column("v", "INCOME").expect("post-recovery column");
        prop_assert!(
            after == pre || after == post,
            "crash at +{} left a torn batch: {} rows (pre {}, post {})",
            crash_offset, after.len(), pre.len(), post.len()
        );
        // Idempotent: a second recovery finds nothing and moves nothing.
        let again = primary.recover().expect("second recovery");
        prop_assert!(again.views_recovered.is_empty(), "{:?}", again);
        prop_assert_eq!(&primary.column("v", "INCOME").expect("column"), &after);
        assert_consistent(&mut primary)?;
    }

    /// The cancellation twin of the batch-commit crash property: a
    /// commit running under *any* op budget either completes exactly
    /// (the fault-free twin's post state) or fails with the **typed**
    /// cooperative-stop error and leaves the exact pre-batch state —
    /// no torn columns, no stranded locks, and a subsequent recovery
    /// still lands on one of the two committed states.
    #[test]
    fn budget_tripped_batch_commits_abort_cleanly_and_recover_all_or_nothing(
        budget in 0u64..220,
        threshold in 18i64..60,
        bump in 1i64..400,
        row in 0usize..60,
    ) {
        use sdbms::core::CoreError;
        use sdbms::data::Value;
        use sdbms::storage::{BudgetScope, CancelToken};

        let mut primary = setup();
        let mut twin = setup();
        let pre = primary.column("v", "INCOME").expect("pre-batch column");
        prop_assert_eq!(&pre, &twin.column("v", "INCOME").expect("twin pre"));
        let template = primary.snapshot("v").expect("snapshot").row(0).expect("row");
        let poke = match &pre[row] {
            Value::Int(i) => Value::Int(i + 13),
            Value::Float(f) => Value::Float(f + 13.0),
            other => other.clone(),
        };
        let pred = Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(threshold));
        let assign = Expr::col("INCOME").binary(BinOp::Add, Expr::lit(bump));

        // The fault-free twin computes the exact post-batch state.
        let tb = twin.begin_batch("v").expect("twin batch");
        twin.batch_update_where(tb, &pred, &[("INCOME", assign.clone())]).expect("stage");
        twin.batch_set_cell(tb, row, "INCOME", poke.clone()).expect("stage");
        twin.batch_append_row(tb, template.clone()).expect("stage");
        twin.commit_batch(tb).expect("fault-free commit");
        let post = twin.column("v", "INCOME").expect("post-batch column");

        // The primary stages the identical batch (staging does no I/O)
        // and commits under an ambient op budget that may trip at any
        // durable step — intent write, cell writes, flush, or retire.
        let b = primary.begin_batch("v").expect("begin does no I/O");
        primary.batch_update_where(b, &pred, &[("INCOME", assign)]).expect("stage");
        primary.batch_set_cell(b, row, "INCOME", poke).expect("stage");
        primary.batch_append_row(b, template).expect("stage");
        let outcome = {
            let _scope = BudgetScope::enter(CancelToken::with_op_budget(budget));
            primary.commit_batch(b)
        };
        match outcome {
            Ok(_) => {
                prop_assert_eq!(
                    &primary.column("v", "INCOME").expect("column"), &post,
                    "a commit the budget admitted must equal the twin's post state"
                );
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, CoreError::DeadlineExceeded | CoreError::Cancelled),
                    "budget {} tripped with a non-cooperative error: {:?}", budget, e
                );
                prop_assert_eq!(
                    &primary.column("v", "INCOME").expect("column"), &pre,
                    "a tripped commit must leave the exact pre-batch state"
                );
                // No stranded lock: the view accepts a new batch at once.
                let nb = primary.begin_batch("v").expect("view stays lockable");
                primary.abort_batch(nb).expect("abort");
            }
        }

        // Recovery replays or retires whatever intent survived the
        // trip; either way it lands on a committed state, never a mix.
        primary.recover().expect("recovery on healthy hardware");
        let after = primary.column("v", "INCOME").expect("post-recovery column");
        prop_assert!(
            after == pre || after == post,
            "budget {} left a torn batch after recovery: {} rows (pre {}, post {})",
            budget, after.len(), pre.len(), post.len()
        );
        assert_consistent(&mut primary)?;
    }

    /// Repairing a healthy view is an observable no-op: no findings, no
    /// actions, no store or summary churn, cache counters untouched —
    /// and running it twice returns the identical (empty) report.
    #[test]
    fn repair_on_a_healthy_view_is_an_observable_noop(
        preludes in prop::collection::vec((20i64..55, 1i64..200), 0..3)
    ) {
        let mut dbms = setup();
        for (t, b) in preludes {
            dbms.update_where(
                "v",
                &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(t)),
                &[("INCOME", Expr::col("INCOME").binary(BinOp::Add, Expr::lit(b)))],
            )
            .expect("prelude update");
        }
        let stats_before = dbms.cache_stats("v").expect("stats");
        let report = dbms.repair_view("v").expect("repair healthy view");
        prop_assert!(report.findings.is_empty(), "{:?}", report);
        prop_assert!(report.actions.is_empty(), "{:?}", report);
        prop_assert!(!report.store_regenerated && !report.summary_reset);
        prop_assert_eq!(dbms.cache_stats("v").expect("stats"), stats_before);
        prop_assert_eq!(dbms.health("v").expect("health"), ViewHealth::Healthy);
        let again = dbms.repair_view("v").expect("repair twice");
        prop_assert_eq!(report, again);
        assert_consistent(&mut dbms)?;
    }
}

/// Recovery compacts the intent-log chain back to one page, and a
/// recovery run *after* compaction is a no-op: repeated crash/recover
/// cycles never let the chain grow without bound and never re-apply a
/// retired intent. Each round crashes a quarter, a half and three
/// quarters of the way into its update, measured on a fault-free twin
/// brought to the same state.
#[test]
fn wal_chain_compacts_after_recovery_and_recovery_stays_idempotent() {
    fn update(dbms: &mut StatDbms, round: u64) {
        let _ = dbms.update_where(
            "v",
            &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(25i64 + round as i64)),
            &[(
                "INCOME",
                Expr::col("INCOME").binary(BinOp::Add, Expr::lit(3i64)),
            )],
        );
    }
    /// Run round `round`'s update with a crash `offset` operations in,
    /// then recover.
    fn crash_round(dbms: &mut StatDbms, round: u64, offset: u64) {
        let ops = dbms.env().injector.ops();
        dbms.env().injector.set_plan(FaultPlan {
            seed: round,
            crash_at_op: Some(ops + offset),
            ..FaultPlan::none()
        });
        update(dbms, round);
        dbms.env().injector.set_plan(FaultPlan::none());
        assert!(dbms.is_crashed(), "round {round}: the crash budget fired");
        dbms.recover().expect("recovery");
    }
    let mut dbms = setup();
    let mut offsets = Vec::new();
    for round in 0..3u64 {
        let mut twin = setup();
        for (r, &offset) in offsets.iter().enumerate() {
            crash_round(&mut twin, r as u64, offset);
        }
        let before = twin.env().injector.ops();
        update(&mut twin, round);
        assert!(!twin.is_crashed(), "round {round}: the twin ran fault-free");
        let total = twin.env().injector.ops() - before;
        let offset = total * (round + 1) / 4;
        assert!(
            offset > 0,
            "round {round}: the update does {total} device ops"
        );
        offsets.push(offset);
        crash_round(&mut dbms, round, offset);
        let chain = dbms
            .view("v")
            .expect("view")
            .wal
            .as_ref()
            .expect("wal")
            .chain_len();
        assert_eq!(
            chain, 1,
            "round {round}: recovery compacted the chain to one page"
        );
        // Recovery after compaction: nothing pending, nothing moves.
        let col_before = dbms.column("v", "INCOME").expect("column");
        let again = dbms.recover().expect("post-compaction recovery");
        assert!(again.views_recovered.is_empty(), "{again:?}");
        assert_eq!(
            dbms.column("v", "INCOME").expect("column"),
            col_before,
            "round {round}: idempotent recovery moved data"
        );
    }
    let col = dbms.column("v", "INCOME").expect("column");
    for f in functions() {
        let (served, _) = dbms
            .compute("v", "INCOME", &f, AccuracyPolicy::Exact)
            .expect("compute");
        let fresh = f.compute(&col).expect("recompute");
        assert!(
            served.approx_eq(&fresh, 1e-9),
            "{f:?} served {served} != recompute {fresh}"
        );
    }
}

/// The tail of a batch commit, exhaustively: a crash at each of the
/// last 200 I/O operations (every one, when the commit takes fewer) — the durability flush, the install, the
/// epilogue's Summary-DB maintenance against the installed store (or,
/// with an appended row, its invalidation of every attribute), the
/// intent retire — leaves the column exactly pre- or post-batch and
/// every served summary equal to a recompute.
#[test]
fn a_crash_at_every_late_offset_of_a_batch_commit_is_all_or_nothing() {
    fn stage(dbms: &mut StatDbms, append: bool) -> u64 {
        let template = dbms.snapshot("v").expect("snapshot").row(0).expect("row");
        let b = dbms.begin_batch("v").expect("begin");
        let raise = Expr::col("INCOME").binary(BinOp::Add, Expr::lit(5i64));
        let adults = Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(30i64));
        dbms.batch_update_where(b, &adults, &[("INCOME", raise)])
            .expect("stage");
        if append {
            dbms.batch_append_row(b, template).expect("stage");
        }
        b
    }
    for append in [false, true] {
        let mut twin = setup();
        let pre = twin.column("v", "INCOME").expect("pre");
        let tb = stage(&mut twin, append);
        let before = twin.env().injector.ops();
        let report = twin.commit_batch(tb).expect("fault-free commit");
        let total = twin.env().injector.ops() - before;
        let post = twin.column("v", "INCOME").expect("post");
        assert_eq!(report.maintenance.incremental > 0, !append, "{report:?}");

        let mut installed_then_crashed = 0;
        for offset in total.saturating_sub(200)..=total + 1 {
            let mut primary = setup();
            let b = stage(&mut primary, append);
            let ops = primary.env().injector.ops();
            primary.env().injector.set_plan(FaultPlan {
                seed: offset,
                crash_at_op: Some(ops + offset),
                ..FaultPlan::none()
            });
            let outcome = primary.commit_batch(b);
            primary.env().injector.set_plan(FaultPlan::none());
            let crashed = primary.is_crashed();
            if crashed {
                assert!(outcome.is_err(), "+{offset}: a crash must abort the commit");
                primary.recover().expect("recover");
            } else {
                outcome.expect("the crash point lay past the commit");
            }
            let after = primary.column("v", "INCOME").expect("column");
            assert!(after == pre || after == post, "+{offset}: torn batch");
            installed_then_crashed += usize::from(crashed && after == post);
            let again = primary.recover().expect("second recovery");
            assert!(again.views_recovered.is_empty(), "+{offset}: {again:?}");
            assert_consistent(&mut primary).expect("cache agrees with the column");
        }
        assert!(
            installed_then_crashed > 20,
            "append {append}: {installed_then_crashed} crash points after the install"
        );
    }
}

/// Rows of the view whose INCOME update stores four segments.
const MULTI_SEGMENT_ROWS: usize = 3 * 256 + 100;

fn multi_segment_view() -> StatDbms {
    CensusFixture::new()
        .rows(MULTI_SEGMENT_ROWS)
        .pool_pages(256)
        .owner("props")
        .build()
        .expect("fixture")
}

/// `INCOME += 5 WHERE AGE > 30`, in place.
fn raise_adult_incomes(dbms: &mut StatDbms) -> Result<(), sdbms::core::CoreError> {
    let adults = Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(30i64));
    let raise = Expr::col("INCOME").binary(BinOp::Add, Expr::lit(5i64));
    dbms.update_where("v", &adults, &[("INCOME", raise)])
        .map(drop)
}

/// The column the history describes: `pre` with every cell update
/// recorded after `version` applied.
fn column_per_history(dbms: &StatDbms, version: u64, pre: &[Value]) -> Vec<Value> {
    let mut column = pre.to_vec();
    let history = &dbms.catalog().view("v").expect("view").history;
    for (_, record) in history.records_since(version) {
        if let ChangeRecord::CellUpdate { row, new, .. } = record {
            column[row] = new;
        }
    }
    column
}

/// A crash after an update's cell writes, and then damaged pages
/// under the view: recovery cannot write those cells again, so it
/// leaves the view degraded rather than failing. Degraded reads see
/// the update (the archive with the history replayed), and
/// `repair_view` rebuilds the column the history describes.
#[test]
fn a_redo_that_meets_a_damaged_page_degrades_the_view_until_repair() {
    for offset in 1.. {
        let mut dbms = multi_segment_view();
        let pre = dbms.column("v", "INCOME").expect("pre");
        let version = dbms.history_version("v").expect("version");
        let ops = dbms.env().injector.ops();
        dbms.env().injector.set_plan(FaultPlan {
            seed: offset,
            crash_at_op: Some(ops + offset),
            ..FaultPlan::none()
        });
        let outcome = raise_adult_incomes(&mut dbms);
        dbms.env().injector.set_plan(FaultPlan::none());
        assert!(
            dbms.is_crashed() && outcome.is_err(),
            "+{offset}: no crash fell after the update's cell writes"
        );
        let recorded = column_per_history(&dbms, version, &pre);
        if recorded == pre {
            continue;
        }
        for pid in dbms.view("v").expect("view").store.data_page_ids() {
            dbms.env().disk.corrupt_page(pid, 3).expect("corrupt");
        }
        dbms.recover().expect("recovery on healthy hardware");
        assert_eq!(dbms.health("v").expect("health"), ViewHealth::Degraded);
        let history = &dbms.catalog().view("v").expect("view").history;
        let noted = history.records_since(version).any(
            |(_, r)| matches!(r, ChangeRecord::Recovery { detail } if detail.contains("degraded")),
        );
        assert!(noted, "+{offset}: recovery left no record of the damage");
        let (served, source) = dbms
            .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
            .expect("degraded read");
        assert_eq!(source, ComputeSource::Fallback);
        let want = StatFunction::Mean.compute(&recorded).expect("mean");
        assert!(served.approx_eq(&want, 1e-9), "{served} != {want}");
        dbms.repair_view("v").expect("repair");
        assert_eq!(dbms.health("v").expect("health"), ViewHealth::Healthy);
        assert_eq!(dbms.column("v", "INCOME").expect("column"), recorded);
        return;
    }
}

/// An in-place update whose cell writes span several segments, at
/// every I/O operation: after the crash and recovery the column is
/// what the history says (the pre-update column with every recorded
/// cell update applied, though the crash discarded unflushed frames),
/// every INCOME cell holds its pre- or post-update value, every served
/// summary equals a recompute, and a second recovery finds nothing to
/// do. Each recovery is itself crashed at every operation in turn
/// before one is let finish.
#[test]
fn a_crash_at_every_offset_of_a_multi_segment_update_recovers_consistent() {
    const ROWS: usize = MULTI_SEGMENT_ROWS;
    let build = multi_segment_view;
    let update = raise_adult_incomes;
    let mut twin = build();
    let pre = twin.column("v", "INCOME").expect("pre");
    let before = twin.env().injector.ops();
    update(&mut twin).expect("fault-free update");
    let total = twin.env().injector.ops() - before;
    let post = twin.column("v", "INCOME").expect("post");
    let touched = (0..ROWS).filter(|&r| pre[r] != post[r]).map(|r| r / 256);
    let segments: std::collections::BTreeSet<usize> = touched.collect();
    assert!(segments.len() >= 3, "the update stores {segments:?}");

    let mut crashed_mid_write = 0;
    let mut recoveries_crashed = 0;
    for offset in 1..=total + 1 {
        let mut primary = build();
        let version = primary.history_version("v").expect("version");
        let ops = primary.env().injector.ops();
        primary.env().injector.set_plan(FaultPlan {
            seed: offset,
            crash_at_op: Some(ops + offset),
            ..FaultPlan::none()
        });
        let outcome = update(&mut primary);
        primary.env().injector.set_plan(FaultPlan::none());
        if primary.is_crashed() {
            assert!(outcome.is_err(), "+{offset}: a crash must abort the update");
            // Crash the recovery at its first operation, then at its
            // second, and so on until one runs to the end: a retried
            // recovery must still write what the first one lost.
            for k in 1.. {
                assert!(k < 10_000, "+{offset}: recovery never finished");
                let ops = primary.env().injector.ops();
                primary.env().injector.set_plan(FaultPlan {
                    seed: k,
                    crash_at_op: Some(ops + k),
                    ..FaultPlan::none()
                });
                let recovered = primary.recover();
                primary.env().injector.set_plan(FaultPlan::none());
                if recovered.is_ok() && !primary.is_crashed() {
                    break;
                }
                recoveries_crashed += 1;
            }
        } else {
            outcome.expect("the crash point lay past the update");
        }
        let after = primary.column("v", "INCOME").expect("column");
        let recorded = column_per_history(&primary, version, &pre);
        let history = &primary.catalog().view("v").expect("view").history;
        for (_, record) in history.records_since(version) {
            if let ChangeRecord::Recovery { detail } = record {
                assert!(
                    !detail.contains("rewrote 0 "),
                    "+{offset}: a recovery record of nothing: {detail}"
                );
            }
        }
        let wrong = (0..ROWS).find(|&row| after[row] != recorded[row]);
        assert!(
            wrong.is_none(),
            "+{offset}: row {wrong:?} is not what the history says"
        );
        for (row, cell) in after.iter().enumerate() {
            assert!(
                *cell == pre[row] || *cell == post[row],
                "+{offset}: row {row} holds {cell}, neither {} nor {}",
                pre[row],
                post[row]
            );
        }
        crashed_mid_write += usize::from(after != pre && after != post);
        let again = primary.recover().expect("second recovery");
        assert!(again.views_recovered.is_empty(), "+{offset}: {again:?}");
        assert_consistent(&mut primary).expect("cache agrees with the column");
    }
    assert!(
        crashed_mid_write > 0,
        "no crash point fell between two segment stores of {total} ops"
    );
    assert!(recoveries_crashed > 0, "no recovery was interrupted");
    println!("{recoveries_crashed} recoveries crashed and were retried");
}
