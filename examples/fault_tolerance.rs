//! The failure model end to end (DESIGN.md §8).
//!
//! Demonstrates the fault-injection storage layer working underneath a
//! live analysis session: transient I/O errors absorbed by retry with
//! backoff, silent page corruption caught by checksums and quarantined
//! out of the Summary Database, answers recovered from the raw archive
//! when the view itself is damaged, a mid-update crash honored by the
//! write-ahead intent log on recovery, and finally a view that
//! *self-heals*: bit flips found by the background scrubber, triaged,
//! and repaired from the raw archive with the analyst's edit history
//! replayed back on top. The finale puts the front-line server on top
//! of the same faulty hardware: a slow fault eats a request deadline
//! (typed, never partial), consecutive engine failures open the
//! view's circuit breaker, cached reads keep serving while it is
//! open, and a half-open probe closes it once the disk heals
//! (DESIGN.md §16).
//!
//! Run with: `cargo run --example fault_tolerance`

use sdbms::core::{
    AccuracyPolicy, BinOp, CmpOp, ComputeSource, Expr, Predicate, StatFunction, ViewDefinition,
};
use sdbms::storage::{DeviceFaults, FaultPlan};
use sdbms_testkit::CensusFixture;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- A DBMS on faulty hardware ----------------------------------------
    // The shared census fixture, demo-sized and cold (no warmed
    // summaries — each section below earns its own cache state).
    let mut dbms = CensusFixture::new()
        .rows(500)
        .owner("alice")
        .warm(false)
        .build()?;

    // ---- 1. Transients are retried, not surfaced ---------------------------
    // Drop the (clean, just-flushed) pool frames so the computation
    // actually reads the faulty disk instead of warm memory.
    dbms.env().restart()?;
    dbms.env().injector.set_plan(FaultPlan {
        seed: 42,
        disk: DeviceFaults {
            transient_read: 0.10,
            transient_write: 0.10,
            ..DeviceFaults::default()
        },
        ..FaultPlan::none()
    });
    let (mean, _) = dbms.compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)?;
    let io = dbms.io();
    println!("mean(INCOME) = {mean} on a disk with 10% transient faults");
    println!(
        "  retries absorbed: {}, backoff units paid: {}",
        io.retries, io.backoff_units
    );
    assert!(io.retries > 0, "the plan should have fired transients");

    // ---- 2. Silent corruption is quarantined -------------------------------
    dbms.env().injector.set_plan(FaultPlan::none());
    dbms.env().pool.flush_all()?;
    // Flip one bit in every allocated disk page (the intent log keeps
    // its pages; recovery needs them readable for this demo's part 4).
    let wal_pages = dbms.view("v")?.wal.as_ref().expect("wal").log_pages();
    for pid in 0..dbms.env().disk.page_id_limit() {
        if !wal_pages.contains(&pid) {
            let _ = dbms.env().disk.corrupt_page(pid, 7);
        }
    }
    dbms.recover()?; // restart: drop clean frames, next reads hit the damage
    let (served, source) =
        dbms.compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)?;
    let stats = dbms.cache_stats("v")?;
    println!("\nafter corrupting every data page:");
    println!("  mean(INCOME) = {served} (source: {source:?})");
    println!(
        "  quarantined entries: {}, checksum failures seen: {}",
        stats.quarantined,
        dbms.io().checksum_failures
    );
    assert_eq!(
        source,
        ComputeSource::Fallback,
        "answer came from the archive"
    );
    assert!(served.approx_eq(&mean, 1e-9), "…and it is still correct");

    // ---- 3. Rebuild a healthy view and warm its cache ----------------------
    dbms.drop_view("v", "alice")?;
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "alice")?;
    dbms.compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)?;

    // ---- 4. Crash mid-update; the intent log makes recovery exact ----------
    let ops = dbms.env().injector.ops();
    dbms.env().injector.set_plan(FaultPlan {
        seed: 7,
        crash_at_op: Some(ops + 25),
        ..FaultPlan::none()
    });
    let crashed = dbms.update_where(
        "v",
        &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(40i64)),
        &[(
            "INCOME",
            Expr::col("INCOME").binary(BinOp::Add, Expr::lit(1_000i64)),
        )],
    );
    println!("\nupdate under a scheduled crash: {crashed:?}");
    assert!(dbms.is_crashed());

    dbms.env().injector.set_plan(FaultPlan::none());
    let report = dbms.recover()?;
    println!("recovery: {report:?}");
    let col = dbms.column("v", "INCOME")?;
    let (after, _) = dbms.compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)?;
    let fresh = StatFunction::Mean.compute(&col)?;
    assert!(after.approx_eq(&fresh, 1e-9));
    println!("served mean(INCOME) = {after} == recompute {fresh}");

    // The audit trail shows recovery acted.
    for (ver, rec) in dbms.catalog().view("v")?.history.records() {
        if rec.to_string().starts_with("recovery:") {
            println!("history v{ver}: {rec}");
        }
    }
    // ---- 5. Corrupt, then self-heal ----------------------------------------
    // Flip bits in a couple of the view's data pages, let the budgeted
    // scrubber find them, read through the degradation, then repair:
    // regenerate from the archive and replay the update history so the
    // analyst's edits (part 4's surviving cells included) come back.
    use sdbms::core::ViewHealth;
    let before_col = dbms.column("v", "INCOME")?;
    dbms.env().pool.flush_all()?;
    let pages = dbms.view("v")?.store.data_page_ids();
    for pid in pages.iter().take(2) {
        dbms.env().disk.corrupt_page(*pid, 13)?;
    }
    let scrubbed = dbms.scrub(10_000)?;
    println!(
        "\nscrub: {} pages verified, {} finding(s), health now {:?}",
        scrubbed.pages_verified,
        scrubbed.findings.len(),
        dbms.health("v")?
    );
    assert_eq!(dbms.health("v")?, ViewHealth::Degraded);

    // Degraded reads still answer — from the archive, never cached.
    let (degraded, src) =
        dbms.compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)?;
    println!("degraded read: mean(INCOME) = {degraded} (source: {src:?})");
    assert_eq!(src, ComputeSource::Fallback);

    let repaired = dbms.repair_view("v")?;
    println!(
        "repair: {:?}\n  store regenerated: {}, history records replayed: {}, \
         zone maps rebuilt: {}, summary reset: {}",
        repaired.actions,
        repaired.store_regenerated,
        repaired.history_replayed,
        repaired.zone_maps_rebuilt,
        repaired.summary_reset
    );
    assert_eq!(dbms.health("v")?, ViewHealth::Healthy);
    let after_col = dbms.column("v", "INCOME")?;
    assert_eq!(before_col, after_col, "repair restored the edited column");
    let (healed, src) = dbms.compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)?;
    assert_ne!(src, ComputeSource::Fallback);
    println!("healed read: mean(INCOME) = {healed} (source: {src:?})");

    // ---- 6. Two analysts: a pinned snapshot vs. a committing batch ---------
    // Alice opens a read snapshot and starts analyzing. While she
    // works, Bob stages and commits a transactional update batch on the
    // same view, and the background scrubber runs a pass. Alice's
    // numbers stay exactly what they were when she opened the snapshot
    // — a new version is only visible once she re-opens.
    let alice = dbms.snapshot("v")?;
    let alice_mean_before = alice.compute("INCOME", &StatFunction::Mean)?.0;
    let alice_rows_before = alice.len();
    println!(
        "\nalice pins version {} ({} rows): mean(INCOME) = {alice_mean_before}",
        alice.version(),
        alice_rows_before
    );

    let bob = dbms.begin_batch("v")?;
    dbms.batch_update_where(
        bob,
        &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(30i64)),
        &[(
            "INCOME",
            Expr::col("INCOME").binary(BinOp::Add, Expr::lit(5_000i64)),
        )],
    )?;
    // While Bob's batch holds the view lock, the scrubber simply skips
    // the view — it never blocks and never sees half a batch.
    let mid_scrub = dbms.scrub(10_000)?;
    println!(
        "scrub during bob's batch: {} view(s) skipped (writer holds the lock)",
        mid_scrub.views_skipped
    );
    let committed = dbms.commit_batch(bob)?;
    println!(
        "bob commits: {} row(s) matched, {} cell(s) changed",
        committed.rows_matched, committed.cells_changed
    );
    let post_scrub = dbms.scrub(10_000)?;
    assert!(post_scrub.findings.is_empty(), "the commit left no damage");

    // Alice's pinned snapshot is untouched by all of that.
    let alice_mean_after = alice.compute("INCOME", &StatFunction::Mean)?.0;
    assert!(
        alice_mean_after.approx_eq(&alice_mean_before, 0.0),
        "a pinned snapshot never moves"
    );
    assert_eq!(alice.len(), alice_rows_before);
    println!("alice re-reads her snapshot: mean(INCOME) = {alice_mean_after} (unchanged)");

    // Only a fresh snapshot observes Bob's batch — atomically.
    let alice2 = dbms.snapshot("v")?;
    let fresh_mean = alice2.compute("INCOME", &StatFunction::Mean)?.0;
    println!(
        "alice re-opens at version {}: mean(INCOME) = {fresh_mean}",
        alice2.version()
    );
    assert!(alice2.version() > alice.version());
    assert!(!fresh_mean.approx_eq(&alice_mean_before, 1e-9));
    drop(alice);
    drop(alice2);

    // ---- 7. The front door: deadlines, a breaker, and cached reads ---------
    // Put the serving layer on top of the same engine: every request
    // now carries a 60-unit op budget, and two consecutive engine
    // failures open the view's circuit breaker.
    use sdbms::serve::{
        BreakerConfig, BreakerState, Query, ServeConfig, ServeError, Served, Server,
    };

    let server = Server::start(
        dbms,
        ServeConfig {
            deadline_ops: Some(60),
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_ticks: 4,
                half_open_probes: 1,
            },
            ..ServeConfig::default()
        },
    );
    let session = server.open_session("alice", "v")?;
    let warm = server.query(session, Query::summary("INCOME", StatFunction::Mean))?;
    println!(
        "\nserver: mean(INCOME) computed and cached (served: {:?})",
        warm.served
    );

    // A slow fault: reads succeed but stall 100 simulated units each,
    // and the second stall finds the 60-unit budget already overdrawn —
    // a typed deadline error, never a partial result.
    server.with_dbms_mut(|d| {
        d.env().pool.flush_all().expect("flush");
        d.env().pool.discard_frames().expect("discard");
        d.env().injector.set_plan(FaultPlan {
            seed: 16,
            disk: DeviceFaults {
                slow_read: 1.0,
                slow_read_units: 100,
                ..DeviceFaults::default()
            },
            ..FaultPlan::none()
        });
    });
    let tripped = server
        .query(session, Query::summary("AGE", StatFunction::Max))
        .expect_err("a slow scan cannot beat a 60-unit deadline");
    println!("slow disk vs the deadline: {tripped}");
    assert!(matches!(tripped, ServeError::DeadlineExceeded));

    // Now the disk goes fully dark. The deadline trip was failure one;
    // this engine failure is the second consecutive one — the breaker
    // opens and fast-fails further work without touching the engine.
    server.with_dbms_mut(|d| {
        d.env().pool.discard_frames().expect("discard");
        d.env().injector.set_plan(FaultPlan {
            seed: 17,
            disk: DeviceFaults {
                transient_read: 1.0,
                ..DeviceFaults::default()
            },
            ..FaultPlan::none()
        });
    });
    let dead = server
        .query(session, Query::summary("AGE", StatFunction::Max))
        .expect_err("retries exhaust against a dead disk");
    println!("dead disk: {dead}");
    let open = server
        .query(session, Query::summary("AGE", StatFunction::Max))
        .expect_err("the breaker is open");
    println!("breaker: {open}");
    assert!(matches!(open, ServeError::BreakerOpen { .. }));
    assert!(open.retry_after_ms().is_some(), "fast-fails carry a hint");
    assert!(matches!(server.breaker_state("v"), BreakerState::Open));

    // The front cache bypasses the broken disk entirely: the warmed
    // query keeps serving while the breaker holds the engine safe.
    let hit = server.query(session, Query::summary("INCOME", StatFunction::Mean))?;
    assert_eq!(hit.served, Served::FrontCache);
    println!("cached mean(INCOME) still serves while the breaker is open");

    // Heal the disk. The open window elapses as requests arrive; the
    // first half-open probe succeeds and closes the breaker.
    server.with_dbms_mut(|d| d.env().injector.set_plan(FaultPlan::none()));
    let mut healed = None;
    for _ in 0..8 {
        match server.query(session, Query::summary("AGE", StatFunction::Max)) {
            Ok(resp) => {
                healed = Some(resp);
                break;
            }
            Err(ServeError::BreakerOpen { .. }) => {}
            Err(other) => return Err(other.into()),
        }
    }
    let healed = healed.expect("a probe must get through within the window");
    assert_eq!(server.breaker_state("v"), BreakerState::Closed);
    println!(
        "healed: max(AGE) recomputed (served: {:?}), breaker closed again",
        healed.served
    );
    let _dbms = server.shutdown().expect("engine handed back");

    println!("\ninvariant held: no fault made the cache lie.");
    Ok(())
}
