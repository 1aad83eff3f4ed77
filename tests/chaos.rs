//! Chaos harness: many seeded fault schedules against the full DBMS.
//!
//! Each schedule drives the same analysis workload (warm summaries,
//! predicate updates, cached reads) under a deterministic fault plan —
//! transient I/O failures, silent bit corruption, permanent block
//! loss, and a mid-workload crash on half the schedules. The invariant
//! checked at the end of every schedule is the one that matters for a
//! statistical database: **the Summary Database never serves a value
//! that differs from a from-scratch recompute of the view** — damaged
//! entries may cost an error or a recompute, but never a silently
//! wrong answer.

use sdbms::core::{
    AccuracyPolicy, BinOp, CmpOp, ComputeSource, Expr, Predicate, Snapshot, StatDbms, StatFunction,
    ViewHealth,
};
use sdbms::exec::ExecConfig;
use sdbms::storage::{DeviceFaults, FaultPlan, StorageEnv};
use sdbms_testkit::{
    checked_functions, seeded_income_update, splitmix, unit, CensusFixture, CENSUS_ATTRS,
};

/// Fault schedules to run (the acceptance bar is 100). PR runs use the
/// default; the nightly CI chaos job raises it through the
/// `SDBMS_CHAOS_SCHEDULES` environment knob.
fn schedules() -> u64 {
    std::env::var("SDBMS_CHAOS_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120)
}

/// Updates driven through each schedule.
const STEPS: u64 = 6;

/// The deterministic fault plan for one schedule. `base_ops` is the
/// injector's current operation count, so crashes land inside the
/// chaos phase rather than before it.
fn plan_for(seed: u64, base_ops: u64) -> FaultPlan {
    let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(7);
    let crash = splitmix(&mut s).is_multiple_of(2);
    FaultPlan {
        seed,
        disk: DeviceFaults {
            transient_read: 0.02 + unit(&mut s) * 0.05,
            transient_write: 0.02 + unit(&mut s) * 0.05,
            corrupt_write: unit(&mut s) * 0.01,
            permanent_read: unit(&mut s) * 0.002,
            ..DeviceFaults::default()
        },
        archive: DeviceFaults {
            transient_read: 0.02 + unit(&mut s) * 0.03,
            ..DeviceFaults::default()
        },
        crash_at_op: crash.then(|| base_ops + 20 + splitmix(&mut s) % 400),
    }
}

const ATTRS: [&str; 2] = CENSUS_ATTRS;

/// A DBMS with a clean 160-row census view, crash-consistent
/// durability, and warmed summaries. Built fault-free — the testkit's
/// default fixture, which was extracted from this harness.
fn setup() -> StatDbms {
    CensusFixture::new()
        .owner("chaos")
        .build()
        .expect("fixture")
}

/// Bring a crashed DBMS back up; if recovery itself keeps faulting,
/// repair the machine (clear the plan) and recover on healthy
/// hardware, which must succeed.
fn recover_until_up(dbms: &mut StatDbms) -> u64 {
    let mut rebuilt = 0;
    for _ in 0..4 {
        match dbms.recover() {
            Ok(r) => return rebuilt + r.caches_rebuilt as u64,
            Err(_) => rebuilt = 0,
        }
    }
    dbms.env().injector.set_plan(FaultPlan::none());
    let r = dbms.recover().expect("recovery on healthy hardware");
    r.caches_rebuilt as u64
}

#[test]
fn hundred_plus_seeded_fault_schedules_never_serve_wrong_summaries() {
    let schedules = schedules();
    let mut total_transient = 0u64;
    let mut total_retries = 0u64;
    let mut total_corrupt = 0u64;
    let mut crashes_recovered = 0u64;
    let mut total_quarantined = 0u64;
    let mut comparisons = 0u64;

    for seed in 0..schedules {
        let mut dbms = setup();
        let base_ops = dbms.env().injector.ops();
        dbms.env().injector.set_plan(plan_for(seed, base_ops));

        // Chaos phase: updates and cached reads under fire. Errors are
        // tolerated (a fault may legitimately abort an operation); a
        // crash is recovered and the workload continues.
        let mut s = seed ^ 0xC0FF_EE00;
        for _ in 0..STEPS {
            let edit = seeded_income_update(&mut s);
            let outcome = edit.apply(&mut dbms, "v");
            if outcome.is_err() && dbms.is_crashed() {
                crashes_recovered += 1;
                recover_until_up(&mut dbms);
            }
            let attr = ATTRS[(splitmix(&mut s) % 2) as usize];
            let funcs = checked_functions();
            let f = &funcs[(splitmix(&mut s) as usize) % funcs.len()];
            if dbms.compute("v", attr, f, AccuracyPolicy::Exact).is_err() && dbms.is_crashed() {
                crashes_recovered += 1;
                recover_until_up(&mut dbms);
            }
        }

        let stats = dbms.env().injector.stats();
        total_transient += stats.transient;
        total_corrupt += stats.corrupt;
        total_retries += dbms.io().retries;

        // Verification phase on healthy hardware (damage already done
        // — dead blocks and corrupted pages persist): every summary the
        // cache serves must match a from-scratch recompute of the view.
        dbms.env().injector.set_plan(FaultPlan::none());
        if dbms.is_crashed() {
            recover_until_up(&mut dbms);
        }
        for a in ATTRS {
            // If the view column itself was destroyed there is no
            // ground truth to compare against (compute() then answers
            // from the raw archive or errors — either is acceptable).
            let Ok(col) = dbms.column("v", a) else {
                continue;
            };
            for f in checked_functions() {
                let Ok((served, _)) = dbms.compute("v", a, &f, AccuracyPolicy::Exact) else {
                    continue;
                };
                let fresh = f.compute(&col).expect("recompute");
                comparisons += 1;
                assert!(
                    served.approx_eq(&fresh, 1e-9),
                    "schedule {seed}: {f:?}({a}) served {served} but a \
                     from-scratch recompute gives {fresh}"
                );
            }
        }
        total_quarantined += dbms.cache_stats("v").expect("stats").quarantined;
    }

    // The harness must have actually exercised the machinery: faults
    // fired, retries absorbed transients, crashes were recovered, and
    // the vast majority of summaries stayed comparable.
    assert!(
        total_transient > 100,
        "transient faults fired: {total_transient}"
    );
    assert!(
        total_retries > 100,
        "retries absorbed transients: {total_retries}"
    );
    assert!(total_corrupt > 0, "corrupt writes fired: {total_corrupt}");
    assert!(
        crashes_recovered >= schedules / 4,
        "crashes recovered: {crashes_recovered}"
    );
    assert!(
        comparisons > schedules * 8,
        "most schedules stayed verifiable: {comparisons} comparisons"
    );
    // Quarantines are opportunistic (they need a corrupt page to be
    // re-read through the cache path), so only report-level coverage is
    // asserted across the whole run.
    let _ = total_quarantined;
}

/// The same chaos invariant, driven through the morsel-parallel scan
/// path: 4 scan workers over a 5-morsel partition, under seeded
/// transient / corrupt / permanent-fault schedules (half of them with a
/// mid-workload crash). Checked here:
///
/// - faults never *poison* a merged result — anything the cache serves
///   after the storm matches a from-scratch recompute;
/// - permanent faults and crashes surface as clean errors, and
/// - worker pools under fire never deadlock — the whole run is under a
///   hard test-level timeout.
#[test]
fn parallel_scans_under_faults_never_poison_and_never_hang() {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        parallel_chaos_run();
        tx.send(()).ok();
    });
    match rx.recv_timeout(std::time::Duration::from_secs(240)) {
        Ok(()) => worker.join().expect("chaos run panicked"),
        Err(_) => panic!(
            "parallel chaos run still not finished after 240s — \
             a worker pool is deadlocked or livelocked"
        ),
    }
}

fn parallel_chaos_run() {
    let par_schedules = (schedules() / 3).max(8);
    let mut comparisons = 0u64;
    let mut clean_errors = 0u64;
    let mut crashes_recovered = 0u64;

    for seed in 0..par_schedules {
        let mut dbms = setup();
        // 160 rows at 32-row morsels: five morsels contended by four
        // workers, so merges genuinely cross threads.
        dbms.set_exec_config(ExecConfig {
            workers: 4,
            morsel_rows: 32,
        });
        let base_ops = dbms.env().injector.ops();
        dbms.env()
            .injector
            .set_plan(plan_for(seed.wrapping_add(7_000), base_ops));

        let mut s = seed ^ 0xFEED_FACE;
        for _ in 0..STEPS {
            let edit = seeded_income_update(&mut s);
            let outcome = edit.apply(&mut dbms, "v");
            if outcome.is_err() {
                clean_errors += 1;
                if dbms.is_crashed() {
                    crashes_recovered += 1;
                    recover_until_up(&mut dbms);
                }
            }
            let attr = ATTRS[(splitmix(&mut s) % 2) as usize];
            let funcs = checked_functions();
            let f = &funcs[(splitmix(&mut s) as usize) % funcs.len()];
            if dbms.compute("v", attr, f, AccuracyPolicy::Exact).is_err() {
                clean_errors += 1;
                if dbms.is_crashed() {
                    crashes_recovered += 1;
                    recover_until_up(&mut dbms);
                }
            }
        }

        // Verification on healthy hardware: whatever the parallel scans
        // cached under fire must match a from-scratch recompute.
        dbms.env().injector.set_plan(FaultPlan::none());
        if dbms.is_crashed() {
            recover_until_up(&mut dbms);
        }
        for a in ATTRS {
            let Ok(col) = dbms.column("v", a) else {
                continue;
            };
            for f in checked_functions() {
                let Ok((served, _)) = dbms.compute("v", a, &f, AccuracyPolicy::Exact) else {
                    continue;
                };
                let fresh = f.compute(&col).expect("recompute");
                comparisons += 1;
                assert!(
                    served.approx_eq(&fresh, 1e-9),
                    "parallel schedule {seed}: {f:?}({a}) served {served} but a \
                     from-scratch recompute gives {fresh}"
                );
            }
        }
    }

    // The storm must have actually hit the parallel path: operations
    // failed cleanly, crashes were recovered, and most schedules stayed
    // verifiable end-to-end.
    assert!(
        clean_errors > 0,
        "faults surfaced as clean errors: {clean_errors}"
    );
    assert!(
        crashes_recovered > 0,
        "some schedules crashed mid-scan and recovered: {crashes_recovered}"
    );
    assert!(
        comparisons > par_schedules * 6,
        "most schedules stayed verifiable: {comparisons} comparisons"
    );
}

/// Seeded bit-flip schedules against **data pages**: the scrubber must
/// detect the damage and mark the view `Degraded`; degraded reads must
/// come from the raw archive as uncached `Fallback` results that still
/// reflect the analyst's recorded edits; and `repair_view` must restore
/// the view **byte-for-byte** — encoded segments, zone maps, and
/// recomputed summary entries all identical to a reference DBMS that
/// ran the same workload and was never damaged (the "fresh archive
/// rebuild + history replay" oracle).
#[test]
fn seeded_data_page_bit_flips_are_scrubbed_and_self_healed() {
    let n = (schedules() / 8).max(6);
    for seed in 0..n {
        // Primary and reference run an identical deterministic edit
        // workload; only the primary gets damaged.
        let mut primary = setup();
        let mut reference = setup();
        let mut s = seed ^ 0xAB5E_11ED;
        for _ in 0..3 {
            let edit = seeded_income_update(&mut s);
            for dbms in [&mut primary, &mut reference] {
                edit.apply(dbms, "v").expect("edit workload");
            }
        }

        // Flip bits in one to three data pages on disk.
        primary.env().pool.flush_all().expect("flush");
        let pages = primary.view("v").expect("view").store.data_page_ids();
        assert!(!pages.is_empty(), "view data occupies pages");
        let mut st = seed ^ 0x0DD_B17;
        for _ in 0..=(splitmix(&mut st) % 3) {
            let pid = pages[(splitmix(&mut st) as usize) % pages.len()];
            let bit = (splitmix(&mut st) % (8 * 512)) as usize;
            primary
                .env()
                .disk
                .corrupt_page(pid, bit)
                .expect("corrupt data page");
        }

        // Detect: a budgeted scrub finds the damage and degrades the view.
        let scrubbed = primary.scrub(100_000).expect("scrub");
        assert!(
            scrubbed.findings.iter().any(|f| f.view == "v"),
            "schedule {seed}: scrub missed the bit flips: {scrubbed:?}"
        );
        assert_eq!(primary.health("v").expect("health"), ViewHealth::Degraded);

        // Degraded reads: served from the raw archive with the recorded
        // cell edits replayed, marked Fallback, and never cached.
        let stats_before = primary.cache_stats("v").expect("stats");
        let (served, source) = primary
            .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
            .expect("degraded read");
        assert_eq!(source, ComputeSource::Fallback);
        assert_eq!(
            primary.cache_stats("v").expect("stats"),
            stats_before,
            "schedule {seed}: a Fallback result touched the summary cache"
        );
        let ref_col = reference.column("v", "INCOME").expect("reference column");
        let want = StatFunction::Mean.compute(&ref_col).expect("mean");
        assert!(
            served.approx_eq(&want, 1e-9),
            "schedule {seed}: degraded read {served} != reference {want}"
        );

        // Repair: regenerate from the archive, replay the update
        // history, verify, readmit.
        let repaired = primary.repair_view("v").expect("repair");
        assert!(repaired.store_regenerated, "{repaired:?}");
        assert!(
            repaired.history_replayed > 0,
            "schedule {seed}: the edit workload must replay: {repaired:?}"
        );
        assert_eq!(primary.health("v").expect("health"), ViewHealth::Healthy);

        // Differential check: the repaired store is byte-identical to
        // the never-damaged reference — encoded segments and zone maps.
        let pv = primary.view("v").expect("view");
        let rv = reference.view("v").expect("view");
        let rows = rv.store.len();
        assert_eq!(pv.store.len(), rows);
        let attrs: Vec<String> = rv
            .store
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.clone())
            .collect();
        for a in &attrs {
            assert_eq!(pv.store.segment_count(a), rv.store.segment_count(a));
            for si in 0..rv.store.segment_count(a) {
                assert_eq!(
                    pv.store.encoded_segment(a, si).expect("repaired segment"),
                    rv.store.encoded_segment(a, si).expect("reference segment"),
                    "schedule {seed}: segment {si} of {a} differs after repair"
                );
            }
            assert_eq!(
                pv.store.range_stats(a, 0, rows),
                rv.store.range_stats(a, 0, rows),
                "schedule {seed}: zone maps of {a} differ after repair"
            );
        }

        // And the summary layer re-converges: every cached function the
        // reference serves, the repaired primary serves with an equal
        // value — cacheable again now that the view is healthy.
        for a in ATTRS {
            for f in checked_functions() {
                let (pval, psrc) = primary
                    .compute("v", a, &f, AccuracyPolicy::Exact)
                    .expect("repaired compute");
                let (rval, _) = reference
                    .compute("v", a, &f, AccuracyPolicy::Exact)
                    .expect("reference compute");
                assert_ne!(psrc, ComputeSource::Fallback, "view is healthy again");
                assert!(
                    pval.approx_eq(&rval, 1e-9),
                    "schedule {seed}: {f:?}({a}) repaired {pval} != reference {rval}"
                );
            }
        }
        let (_, src) = primary
            .compute("v", "AGE", &StatFunction::Mean, AccuracyPolicy::Exact)
            .expect("cached compute");
        assert_eq!(
            src,
            ComputeSource::Cache,
            "results cache again after repair"
        );

        // Idempotence: repairing the now-healthy view is a no-op.
        let again = primary.repair_view("v").expect("idempotent repair");
        assert!(again.findings.is_empty() && !again.store_regenerated);
    }
}

/// The scrubber is cooperative: a tiny budget pauses the walk with a
/// persisted cursor, and repeated passes — including one interrupted by
/// a restart — finish the cycle without skipping or re-reporting work.
#[test]
fn scrub_budget_pauses_and_cursor_survives_restart() {
    let mut dbms = setup();
    let mut passes = 0u32;
    loop {
        let report = dbms.scrub(3).expect("scrub pass");
        passes += 1;
        assert!(report.findings.is_empty(), "healthy view: {report:?}");
        if report.completed_cycle {
            break;
        }
        assert!(report.exhausted_budget, "paused passes report exhaustion");
        if passes == 2 {
            // Restart mid-cycle: the persisted cursor must survive (the
            // buffer pool's cached frames do not).
            dbms.recover().expect("restart");
        }
        assert!(passes < 10_000, "scrub cycle never completed");
    }
    assert!(passes > 1, "a 3-item budget must pause at least once");
    assert_eq!(dbms.health("v").expect("health"), ViewHealth::Healthy);
}

/// Seeded bit-flip schedules against zone-map pages only: a torn or
/// corrupted zone map must degrade the scan to an unpruned one — same
/// rows, more decoding — never to a wrong answer. Page checksums turn
/// any damage into a clean read failure, and the pruning layer treats a
/// failed zone-map load as "no statistics, scan everything".
#[test]
fn corrupted_zone_map_pages_degrade_to_unpruned_scans_never_wrong() {
    use sdbms::columnar::{Compression, TransposedFile};
    use sdbms::data::dataset::DataSet;
    use sdbms::data::schema::{Attribute, Schema};
    use sdbms::data::{DataType, Value};
    use sdbms::relational::filter_table_rows;

    let schema = Schema::new(vec![
        Attribute::measured("BLOCK", DataType::Int),
        Attribute::measured("X", DataType::Int),
    ])
    .expect("schema");
    let rows: Vec<Vec<Value>> = (0..2000i64)
        .map(|i| {
            let x = if i % 13 == 5 {
                Value::Missing
            } else {
                Value::Int((i * 17) % 301 - 150)
            };
            vec![Value::Int(i / 50), x]
        })
        .collect();
    let ds = DataSet::from_rows("zones", schema.clone(), rows).expect("dataset");
    let env = StorageEnv::new(512);
    let mut store = TransposedFile::create_with(
        env.pool.clone(),
        schema,
        &[Compression::Rle, Compression::None],
    )
    .expect("create");
    store.bulk_append(&ds).expect("load");

    let preds = [
        Predicate::col_eq("BLOCK", 7i64),
        Predicate::col_eq("BLOCK", -1i64),
        Predicate::cmp(Expr::col("X"), CmpOp::Gt, Expr::lit(120i64)),
        Predicate::IsMissing("X".into()),
    ];
    // Ground truth from the in-memory rows — independent of the storage
    // and pruning layers — confirmed once against the healthy store.
    let truth: Vec<Vec<usize>> = preds
        .iter()
        .map(|p| {
            let bound = p.bind(ds.schema()).expect("bind");
            ds.rows()
                .iter()
                .enumerate()
                .filter_map(|(i, r)| bound.eval(r).then_some(i))
                .collect()
        })
        .collect();
    let cfg = ExecConfig {
        workers: 4,
        morsel_rows: 128,
    };
    for (p, want) in preds.iter().zip(&truth) {
        assert_eq!(
            &filter_table_rows(&store, p, &cfg).expect("clean scan"),
            want
        );
    }

    let zone_pages = store.zone_page_ids();
    assert!(!zone_pages.is_empty(), "zone maps occupy pages");
    // Flush so the disk holds every zone image, then damage it there;
    // discarding pool frames forces the next reads onto the damaged
    // bytes instead of clean cached frames.
    env.pool.flush_all().expect("flush");

    // Progressive seeded schedule: each round flips another bit in a
    // zone-map page (eventually every map is dead and the scan is fully
    // unpruned). After every hit the scan must return exactly the truth
    // at 1 and 4 workers.
    let mut state = 0xD15E_A5ED_u64;
    for round in 0..zone_pages.len() {
        let pid = zone_pages[(splitmix(&mut state) as usize) % zone_pages.len()];
        let bit = (splitmix(&mut state) % (8 * 64)) as usize;
        env.disk.corrupt_page(pid, bit).expect("corrupt zone page");
        env.pool.discard_frames().expect("drop cached frames");
        for (p, want) in preds.iter().zip(&truth) {
            for workers in [1usize, 4] {
                let got = filter_table_rows(
                    &store,
                    p,
                    &ExecConfig {
                        workers,
                        morsel_rows: 128,
                    },
                )
                .expect("scan survives zone damage");
                assert_eq!(
                    &got, want,
                    "round {round}: damaged zone map changed the answer"
                );
            }
        }
    }
}

/// A small transposed store of `rows` rows for the read-path chaos
/// schedules, built on its own fault-free environment (a pool of
/// `frames` frames) so each schedule controls its own damage.
fn chaos_store(frames: usize, rows: i64) -> (StorageEnv, sdbms::columnar::TransposedFile) {
    use sdbms::columnar::{Compression, TransposedFile};
    use sdbms::data::dataset::DataSet;
    use sdbms::data::schema::{Attribute, Schema};
    use sdbms::data::{DataType, Value};

    let schema = Schema::new(vec![
        Attribute::measured("BLOCK", DataType::Int),
        Attribute::measured("X", DataType::Int),
    ])
    .expect("schema");
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let x = if i % 13 == 5 {
                Value::Missing
            } else {
                Value::Int((i * 17) % 301 - 150)
            };
            vec![Value::Int(i / 50), x]
        })
        .collect();
    let ds = DataSet::from_rows("readchaos", schema.clone(), rows).expect("dataset");
    let env = StorageEnv::new(frames);
    let mut store = TransposedFile::create_with(
        env.pool.clone(),
        schema,
        &[Compression::Rle, Compression::None],
    )
    .expect("create");
    store.bulk_append(&ds).expect("load");
    (env, store)
}

/// Seeded schedules against the read path: after a bit flip in a
/// flushed data page (and with the clean frames dropped, so the pool
/// must re-read it), a read of each column is either a clean
/// checksum / corruption error or exactly the original values — never
/// silently different data.
#[test]
fn corrupt_data_pages_fail_pool_reads_cleanly_or_serve_the_original_values() {
    use sdbms::columnar::TableStore;
    use sdbms::data::DataError;
    use sdbms::storage::StorageError;

    let n = (schedules() / 10).max(8);
    let mut clean_errors = 0;
    for seed in 0..n {
        let (env, store) = chaos_store(512, 1200);
        let want_x = store
            .read_column_range("X", 0, store.len())
            .expect("baseline");
        let want_block = store
            .read_column_range("BLOCK", 0, store.len())
            .expect("baseline");

        // Put the images on disk, then flip a bit in one data page and
        // drop the clean pool frames so every read sees the damage.
        env.pool.flush_all().expect("flush");
        let pages = store.data_page_ids();
        assert!(!pages.is_empty());
        let mut s = seed ^ 0x3AD_5EA1;
        let pid = pages[(splitmix(&mut s) as usize) % pages.len()];
        let bit = (splitmix(&mut s) % (8 * 256)) as usize;
        env.disk.corrupt_page(pid, bit).expect("corrupt data page");
        env.pool.discard_frames().expect("drop frames");

        for (attr, want) in [("X", &want_x), ("BLOCK", &want_block)] {
            match store.read_column_range(attr, 0, store.len()) {
                // The read missed the damaged page.
                Ok(got) => assert_eq!(
                    &got, want,
                    "schedule {seed}: {attr} silently changed after corruption"
                ),
                Err(DataError::Storage(
                    StorageError::ChecksumMismatch { .. } | StorageError::Corrupt(_),
                )) => clean_errors += 1,
                Err(e) => panic!("schedule {seed}: {attr} failed uncleanly: {e:?}"),
            }
        }
    }
    assert!(
        clean_errors >= n,
        "every schedule damages a page one column needs"
    );
}

/// The pool is the cache, and the property is a count: with frames ≥
/// the store's pages, one warming scan makes every later scan a pool
/// hit — zero page reads, so a brutal device-fault plan has nothing to
/// inject into and the values are identical. With a quarter of the
/// frames the same scan must go back to the disk.
#[test]
fn pool_resident_scans_read_no_pages_even_under_faults_and_a_small_pool_rereads() {
    use sdbms::columnar::TableStore;
    use sdbms::data::Value;

    fn scan(store: &sdbms::columnar::TransposedFile) -> Vec<Vec<Value>> {
        ["X", "BLOCK"]
            .iter()
            .map(|attr| {
                store
                    .read_column_batch(attr, 0, store.len())
                    .expect("scan")
                    .to_values()
            })
            .collect()
    }

    const ROWS: i64 = 12_000;
    let (env, store) = chaos_store(512, ROWS);
    let pages = store.data_page_ids().len();
    assert!((32..=512).contains(&pages), "{pages} data pages");
    let want = scan(&store);

    // Start cold so the warming scan is what fills the pool.
    env.pool.flush_all().expect("flush");
    env.pool.discard_frames().expect("drop frames");
    env.tracker.reset();
    assert_eq!(scan(&store), want, "warming scan");
    assert!(env.tracker.snapshot().page_reads > 0);

    // A plan that would wreck any I/O-bound scan (its seed is moot:
    // nothing reaches the device). Assert on the tracker — pool hits
    // advance the injector's op counter by design.
    env.injector.set_plan(FaultPlan {
        seed: 21,
        disk: DeviceFaults {
            transient_read: 0.9,
            transient_write: 0.9,
            corrupt_write: 0.5,
            permanent_read: 0.5,
            ..DeviceFaults::default()
        },
        ..FaultPlan::none()
    });
    let reads_before = env.tracker.snapshot().page_reads;
    assert_eq!(scan(&store), want, "resident scan diverged under faults");
    assert_eq!(
        env.tracker.snapshot().page_reads,
        reads_before,
        "a pool-resident scan read pages"
    );

    // A quarter of the frames, faults off: same values, real reads.
    let (env, store) = chaos_store(pages / 4, ROWS);
    env.pool.flush_all().expect("flush");
    assert_eq!(scan(&store), want, "small-pool warming scan");
    let reads_before = env.tracker.snapshot().page_reads;
    assert_eq!(scan(&store), want, "small-pool scan");
    assert!(
        env.tracker.snapshot().page_reads > reads_before,
        "a pool a quarter of the store served a scan without reading"
    );
}

/// Seeded slow-device schedules against the engine-level budget seam:
/// every read succeeds but stalls, charging simulated time units
/// against the ambient [`sdbms::storage::BudgetScope`]. A budget
/// smaller than the scan's slow cost must trip the **typed**
/// [`sdbms::core::CoreError::DeadlineExceeded`] — never a partial
/// column and never damage: health stays `Healthy`, and an unbounded
/// read through the same slow disk returns bit-identical bytes.
#[test]
fn slow_fault_schedules_trip_deadlines_but_never_change_served_bytes() {
    use sdbms::core::CoreError;
    use sdbms::storage::{BudgetScope, CancelToken};

    let n = (schedules() / 10).max(8);
    for seed in 0..n {
        // 1200 rows = five 256-row segments per column, so a cold scan
        // needs five device reads and a mid-scan trip is reachable
        // (budgets are check-then-consume: a single admitted read may
        // overshoot, but the next read's charge finds the debt).
        let mut dbms = CensusFixture::new()
            .rows(1200)
            .owner("chaos")
            .build()
            .expect("fixture");
        let want = dbms.column("v", "INCOME").expect("baseline column");

        // Cold pool, then a plan where every read stalls for
        // `units` simulated time units but still returns good bytes.
        dbms.env().pool.flush_all().expect("flush");
        dbms.env().pool.discard_frames().expect("discard");
        let units = 25 + seed % 50;
        dbms.env().injector.set_plan(FaultPlan {
            seed,
            disk: DeviceFaults {
                slow_read: 1.0,
                slow_read_units: units,
                ..DeviceFaults::default()
            },
            ..FaultPlan::none()
        });

        // A budget of exactly `units`: the first slow read is admitted
        // and overdraws it, the second read's charge trips — typed.
        let err = {
            let _budget = BudgetScope::enter(CancelToken::with_op_budget(units));
            dbms.column("v", "INCOME")
                .expect_err("a slow five-read scan must out-run its budget")
        };
        assert!(
            matches!(err, CoreError::DeadlineExceeded),
            "schedule {seed}: want the typed deadline error, got {err:?}"
        );
        assert!(
            dbms.env().injector.stats().delayed >= 1,
            "schedule {seed}: the slow fault actually fired"
        );
        // Slowness is not damage: no degraded health, no quarantine.
        assert_eq!(dbms.health("v").expect("health"), ViewHealth::Healthy);

        // Unbounded through the *still-slow* disk: the same bytes,
        // just late — a slow fault may cost time, never correctness.
        let slow = dbms.column("v", "INCOME").expect("unbounded slow read");
        assert_eq!(
            slow, want,
            "schedule {seed}: a slow read changed the served bytes"
        );
        dbms.env().injector.set_plan(FaultPlan::none());
    }
}

/// Silently flip a bit in every disk page except the intent log —
/// summary store and view store alike — then restart so the next
/// reads hit the damaged disk instead of clean pool frames.
fn corrupt_all_but_the_wal_and_restart(dbms: &mut StatDbms) {
    let wal_pages = dbms
        .view("v")
        .expect("view")
        .wal
        .as_ref()
        .expect("wal")
        .log_pages();
    for pid in 0..dbms.env().disk.allocated_pages() as u32 {
        if !wal_pages.contains(&pid) {
            // Never-written pages have no image to damage; skip them.
            let _ = dbms.env().disk.corrupt_page(pid, 3);
        }
    }
    let report = dbms.recover().expect("restart");
    assert!(report.views_recovered.is_empty(), "no intent was pending");
}

#[test]
fn corrupted_summary_pages_are_quarantined_and_recomputed() {
    let mut dbms = setup();
    let expected_col = dbms.column("v", "INCOME").expect("column");
    let expected = StatFunction::Mean.compute(&expected_col).expect("mean");
    corrupt_all_but_the_wal_and_restart(&mut dbms);

    // The cache entry and the view column are both unreadable now, so
    // the lookup quarantines the damaged entry and the answer comes
    // from re-executing the view definition against the raw archive.
    let (served, source) = dbms
        .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .expect("resilient compute");
    assert_eq!(source, ComputeSource::Fallback);
    assert!(
        served.approx_eq(&expected, 1e-9),
        "fallback answer {served} != {expected}"
    );
    assert!(
        dbms.cache_stats("v").expect("stats").quarantined > 0,
        "damaged entries were quarantined"
    );
}

/// The archive fallback of a view still marked healthy replays the
/// cleaning history, exactly as the degraded route does: an analyst's
/// edits are not lost with the concrete view's pages.
#[test]
fn archive_fallback_of_a_healthy_view_keeps_the_analysts_edits() {
    let mut dbms = setup();
    let before = dbms.column("v", "INCOME").expect("column");
    let mut s = 0xED17_5EED;
    for _ in 0..3 {
        seeded_income_update(&mut s)
            .apply(&mut dbms, "v")
            .expect("edit");
    }
    let edited = dbms.column("v", "INCOME").expect("column");
    assert_ne!(edited, before, "the edits changed INCOME");
    let expected = StatFunction::Mean.compute(&edited).expect("mean");
    dbms.env().pool.flush_all().expect("flush");
    corrupt_all_but_the_wal_and_restart(&mut dbms);

    assert_eq!(dbms.health("v").expect("health"), ViewHealth::Healthy);
    let (served, source) = dbms
        .compute("v", "INCOME", &StatFunction::Mean, AccuracyPolicy::Exact)
        .expect("resilient compute");
    assert_eq!(source, ComputeSource::Fallback);
    assert!(
        served.approx_eq(&expected, 1e-9),
        "fallback answer {served} is not the post-edit mean {expected}"
    );
}

/// Multi-analyst chaos: pinned snapshot readers on their own threads
/// race transactional update batches and the background scrubber on
/// the main thread, under seeded transient-fault and crash injection.
///
/// The serial-equivalence oracle: every store version a snapshot can
/// pin has exactly one committed column state, recorded at commit time
/// in a shared map. Every successful read from any snapshot must equal
/// its version's recorded state **exactly** — a torn batch
/// (half-applied ops), an in-place mutation of a pinned store, or a
/// premature epoch reclaim of its pages would all break the equality.
/// Faults may cost a read (an error) but may never change what a
/// successful read returns.
#[test]
fn concurrent_snapshot_readers_never_see_torn_or_uncommitted_state() {
    use sdbms::data::Value;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc, Mutex};

    const READERS: usize = 3;
    const COMMITS: u64 = 4;
    let n = (schedules() / 10).max(6);
    let mut total_commits = 0u64;
    let mut crashes_recovered = 0u64;
    let mut mid_scrub_skips = 0u64;
    let verified = Arc::new(AtomicU64::new(0));

    for seed in 0..n {
        let mut dbms = setup();
        // version → the exact committed INCOME column of that version.
        let oracle: Arc<Mutex<HashMap<u64, Vec<Value>>>> = Arc::new(Mutex::new(HashMap::new()));
        let mut last = dbms.column("v", "INCOME").expect("baseline column");
        let template = dbms.snapshot("v").expect("snapshot").row(0).expect("row");
        oracle.lock().expect("oracle").insert(
            dbms.snapshot("v").expect("snapshot").version(),
            last.clone(),
        );

        std::thread::scope(|scope| {
            let mut senders = Vec::new();
            for reader in 0..READERS {
                let (tx, rx) = mpsc::channel::<Snapshot>();
                senders.push(tx);
                let oracle = Arc::clone(&oracle);
                let verified = Arc::clone(&verified);
                scope.spawn(move || {
                    while let Ok(snap) = rx.recv() {
                        let want = oracle
                            .lock()
                            .expect("oracle")
                            .get(&snap.version())
                            .cloned()
                            .expect("every pinnable version has a recorded committed state");
                        if let (Ok(a), Ok(b)) = (snap.column("INCOME"), snap.column("INCOME")) {
                            assert_eq!(
                                a, b,
                                "reader {reader}: repeated reads inside one snapshot differ"
                            );
                            assert_eq!(
                                a,
                                want,
                                "reader {reader}: snapshot v{} served a state that was \
                                 never committed",
                                snap.version()
                            );
                            verified.fetch_add(1, Ordering::Relaxed);
                        }
                        assert_eq!(
                            snap.len(),
                            want.len(),
                            "reader {reader}: row count moved under a pinned snapshot"
                        );
                        if let Ok((m, _)) = snap.compute("INCOME", &StatFunction::Mean) {
                            let fresh = StatFunction::Mean.compute(&want).expect("oracle mean");
                            assert!(
                                m.approx_eq(&fresh, 1e-9),
                                "reader {reader}: snapshot mean {m} != committed mean {fresh}"
                            );
                            let (memo, src) =
                                snap.compute("INCOME", &StatFunction::Mean).expect("memo");
                            assert_eq!(src, ComputeSource::Cache, "repeat serves the memo");
                            assert!(memo.approx_eq(&m, 0.0), "memoized value is byte-stable");
                        }
                    }
                });
            }

            let mut s = seed ^ 0x5EED_CAFE;
            for step in 0..COMMITS {
                // Each analyst pins the current committed version.
                for tx in &senders {
                    tx.send(dbms.snapshot("v").expect("snapshot"))
                        .expect("reader alive");
                }
                let base_ops = dbms.env().injector.ops();
                let crash = seed % 3 == 1 && step == 2;
                dbms.env().injector.set_plan(FaultPlan {
                    seed: seed ^ (step << 8),
                    disk: DeviceFaults {
                        transient_read: 0.03,
                        transient_write: 0.03,
                        ..DeviceFaults::default()
                    },
                    crash_at_op: crash.then(|| base_ops + 10 + splitmix(&mut s) % 120),
                    ..FaultPlan::none()
                });

                // A batch mixing all three op kinds, so a torn commit
                // would change values *and* the row count.
                let threshold = 20 + (splitmix(&mut s) % 45) as i64;
                let bump = 1 + (splitmix(&mut s) % 300) as i64;
                let row = (splitmix(&mut s) as usize) % last.len();
                let poke = match &last[row] {
                    Value::Int(i) => Value::Int(i + 7),
                    Value::Float(f) => Value::Float(f + 7.0),
                    other => other.clone(),
                };
                let outcome = dbms.begin_batch("v").and_then(|b| {
                    dbms.batch_update_where(
                        b,
                        &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(threshold)),
                        &[(
                            "INCOME",
                            Expr::col("INCOME").binary(BinOp::Add, Expr::lit(bump)),
                        )],
                    )?;
                    dbms.batch_set_cell(b, row, "INCOME", poke)?;
                    dbms.batch_append_row(b, template.clone())?;
                    // The scrubber runs while the batch holds the view
                    // lock: it must skip the view, never block or peek.
                    if let Ok(mid) = dbms.scrub(2_000) {
                        mid_scrub_skips += mid.views_skipped;
                    }
                    dbms.commit_batch(b)
                });
                match outcome {
                    Ok(_) => total_commits += 1,
                    Err(_) => {
                        if dbms.is_crashed() {
                            crashes_recovered += 1;
                            dbms.env().injector.set_plan(FaultPlan::none());
                            recover_until_up(&mut dbms);
                        }
                        // A staging failure would leave the batch open
                        // and the lock held; drop it.
                        let open: Vec<u64> =
                            dbms.open_batches().iter().map(|(id, _, _)| *id).collect();
                        for id in open {
                            let _ = dbms.abort_batch(id);
                        }
                    }
                }

                // Record the committed state of the (possibly new) live
                // version, fault-free. A version seen before must hold
                // identical bytes — recovery may not invent state.
                dbms.env().injector.set_plan(FaultPlan::none());
                let col = dbms.column("v", "INCOME").expect("committed read");
                let ver = dbms.snapshot("v").expect("snapshot").version();
                {
                    let mut map = oracle.lock().expect("oracle");
                    if let Some(prev) = map.get(&ver) {
                        assert_eq!(
                            prev, &col,
                            "schedule {seed}: version {ver} changed content after the fact"
                        );
                    } else {
                        map.insert(ver, col.clone());
                    }
                }
                last = col;
                // Between commits nothing holds the lock: the scrub
                // pass actually runs.
                let _ = dbms.scrub(5_000);
            }
            drop(senders);
        });
        assert_eq!(dbms.pinned_snapshots(), 0, "all reader pins drained");
    }

    assert!(
        total_commits >= n * 2,
        "batches committed under fire: {total_commits}"
    );
    assert!(
        crashes_recovered > 0,
        "some schedules crashed mid-commit and recovered: {crashes_recovered}"
    );
    assert!(
        mid_scrub_skips > 0,
        "the scrubber skipped writer-locked views: {mid_scrub_skips}"
    );
    let verified = verified.load(Ordering::Relaxed);
    assert!(
        verified >= n * COMMITS,
        "readers verified against the oracle: {verified}"
    );
}

#[test]
fn crash_between_update_and_flush_leaves_no_stale_summary() {
    let mut dbms = setup();

    // Crash on a mid-update operation: the cell writes and summary
    // maintenance land in the pool, but the flush never happens.
    let ops = dbms.env().injector.ops();
    dbms.env().injector.set_plan(FaultPlan {
        seed: 1,
        crash_at_op: Some(ops + 30),
        ..FaultPlan::none()
    });
    let err = dbms.update_where(
        "v",
        &Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(30i64)),
        &[(
            "INCOME",
            Expr::col("INCOME").binary(BinOp::Mul, Expr::lit(2i64)),
        )],
    );
    assert!(err.is_err(), "the crash must abort the update");
    assert!(dbms.is_crashed());

    dbms.env().injector.set_plan(FaultPlan::none());
    let report = dbms.recover().expect("recover");
    assert_eq!(
        report.views_recovered,
        vec!["v".to_string()],
        "the pending intent was honored"
    );

    // Whatever mix of old and new INCOME cells survived the crash, the
    // cache must agree with a recompute of exactly that state.
    let col = dbms.column("v", "INCOME").expect("column");
    for f in checked_functions() {
        let (served, _) = dbms
            .compute("v", "INCOME", &f, AccuracyPolicy::Exact)
            .expect("compute");
        let fresh = f.compute(&col).expect("recompute");
        assert!(
            served.approx_eq(&fresh, 1e-9),
            "{f:?} served {served} != recompute {fresh} after crash recovery"
        );
    }

    // And the history shows what recovery did.
    let mut records = dbms.catalog().view("v").expect("record").history.records();
    assert!(
        records.any(|(_, r)| r.to_string().starts_with("recovery:")),
        "recovery left an audit record"
    );
}
