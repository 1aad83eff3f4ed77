//! Per-layer probes: outside-timed calls into one layer's public
//! functions on the workload's own fixture, reported as the median of
//! the calls. They run in the traced run only, after the passes and
//! their oracles, so the destructive ones (updates, crash) cannot
//! disturb a measurement or a check.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sdbms_columnar::{decode_batch, TableStore};
use sdbms_core::{AccuracyPolicy, BatchOp, Expr, StatDbms, StatFunction};
use sdbms_data::Value;
use sdbms_exec::{ExecConfig, SegmentPruner};
use sdbms_relational::prune::ZoneMapPruner;
use sdbms_serve::{Query, ServeConfig, Server};
use sdbms_testkit::seeded_income_update;

use crate::config::Config;
use crate::fixture::{Model, VIEW};
use crate::schedule::{narrow_predicate, AnalystPlan, Edit};
use crate::stats::median;

/// Named results, in the order they were measured.
pub type Metrics = Vec<(&'static str, f64)>;

/// How long one probe may keep calling, and the fewest calls it makes.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_calls: usize,
}

/// Median wall time of `f` in microseconds: at least
/// `budget.min_calls` calls, then more until the time budget is spent
/// (at most 2 000).
pub fn p50_us(budget: Budget, mut f: impl FnMut(usize)) -> f64 {
    let mut times = Vec::new();
    let begun = Instant::now();
    while times.len() < budget.min_calls
        || (times.len() < 2_000 && begun.elapsed().as_secs_f64() < budget.seconds)
    {
        let start = Instant::now();
        f(times.len());
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

type Store = Arc<dyn TableStore + Send + Sync>;

/// Probes of every layer under `sdbms-serve`, on the engine itself.
/// Read-only probes come first; the rest change the view.
pub fn engine(
    dbms: &mut StatDbms,
    cfg: &Config,
    model: &Model,
    seed: u64,
    budget: Budget,
) -> Metrics {
    let mut m = Metrics::new();
    let Ok(store) = dbms.view(VIEW).map(|v| Arc::clone(&v.store)) else {
        return m;
    };
    let rows = store.len();
    let exec = dbms.exec_config();
    let plan = AnalystPlan::new(cfg, model, seed);

    // ---- sdbms-columnar ---------------------------------------------------
    m.push((
        "columnar.read_column_us",
        p50_us(budget, |_| {
            std::hint::black_box(store.read_column("INCOME").ok());
        }),
    ));
    m.push((
        "columnar.read_batch_us",
        p50_us(budget, |_| {
            for start in (0..rows).step_by(exec.morsel_rows.max(1)) {
                let len = exec.morsel_rows.min(rows - start);
                std::hint::black_box(store.read_column_batch("INCOME", start, len).ok());
            }
        }),
    ));
    for (name, attr) in [
        ("columnar.decode_ns_per_row.rle", "AGE"),
        ("columnar.decode_ns_per_row.raw", "INCOME"),
        ("columnar.decode_ns_per_row.dict", "SEX"),
    ] {
        let segments: Vec<Vec<u8>> = (0..store.segment_count(attr))
            .filter_map(|s| store.encoded_segment(attr, s).ok().flatten())
            .collect();
        let us = p50_us(budget, |_| {
            for buf in &segments {
                std::hint::black_box(decode_batch(buf).ok());
            }
        });
        m.push((name, us * 1e3 / rows.max(1) as f64));
    }
    m.push((
        "columnar.read_row_us",
        p50_us(budget, |i| {
            std::hint::black_box(store.read_row((i * 7_919) % rows).ok());
        }),
    ));
    for (name, attr) in [
        ("columnar.segment_bytes_per_row.person_id", "PERSON_ID"),
        ("columnar.segment_bytes_per_row.sex", "SEX"),
        ("columnar.segment_bytes_per_row.race", "RACE"),
        ("columnar.segment_bytes_per_row.region", "REGION"),
        ("columnar.segment_bytes_per_row.age", "AGE"),
        ("columnar.segment_bytes_per_row.age_group", "AGE_GROUP"),
        ("columnar.segment_bytes_per_row.income", "INCOME"),
        (
            "columnar.segment_bytes_per_row.hours_worked",
            "HOURS_WORKED",
        ),
    ] {
        let bytes: usize = (0..store.segment_count(attr))
            .filter_map(|s| store.encoded_segment(attr, s).ok().flatten())
            .map(|buf| buf.len())
            .sum();
        m.push((name, bytes as f64 / rows.max(1) as f64));
    }

    // ---- sdbms-stats --------------------------------------------------------
    let income = store.read_column("INCOME").unwrap_or_default();
    for (name, f) in [
        ("stats.compute_us.mean", StatFunction::Mean),
        ("stats.compute_us.median", StatFunction::Median),
        ("stats.compute_us.quartiles", StatFunction::Quartiles),
        ("stats.compute_us.histogram", StatFunction::Histogram(20)),
        ("stats.compute_us.mode", StatFunction::Mode),
    ] {
        m.push((
            name,
            p50_us(budget, |_| {
                std::hint::black_box(f.compute(&income).ok());
            }),
        ));
    }
    drop(income);

    // ---- sdbms-exec ---------------------------------------------------------
    let profile = |attr: &'static str, exec: ExecConfig| {
        let store = &store;
        move |_| {
            std::hint::black_box(sdbms_exec::profile_table_column(&**store, attr, &exec).ok());
        }
    };
    m.push((
        "exec.profile_column_us.rle",
        p50_us(budget, profile("AGE", exec)),
    ));
    m.push((
        "exec.profile_column_us.raw",
        p50_us(budget, profile("INCOME", exec)),
    ));
    m.push((
        "exec.profile_column_us.lowcard",
        p50_us(budget, profile("SEX", exec)),
    ));
    m.push((
        "exec.read_column_us",
        p50_us(budget, |_| {
            std::hint::black_box(sdbms_exec::read_table_column(&*store, "INCOME", &exec).ok());
        }),
    ));
    let (one, two) = (ExecConfig::with_workers(1), ExecConfig::with_workers(2));
    m.push((
        "exec.scale_w2v1.profile",
        p50_us(budget, profile("INCOME", one)) / p50_us(budget, profile("INCOME", two)),
    ));

    // ---- sdbms-relational -----------------------------------------------------
    let filter = |i: usize, exec: ExecConfig| {
        let predicate = plan.filters[i].predicate();
        let store = &store;
        move |_| {
            std::hint::black_box(
                sdbms_relational::filter_table_rows(&**store, &predicate, &exec).ok(),
            );
        }
    };
    for (i, name) in [
        "relational.filter_us.sel0",
        "relational.filter_us.sel1",
        "relational.filter_us.sel10",
        "relational.filter_us.sel50",
        "relational.filter_us.sel100",
    ]
    .into_iter()
    .enumerate()
    {
        m.push((name, p50_us(budget, filter(i, exec))));
    }
    m.push((
        "exec.scale_w2v1.filter",
        p50_us(budget, filter(3, one)) / p50_us(budget, filter(3, two)),
    ));
    // The clustered 10% predicate: zone maps should refute nine
    // morsels in ten.
    let clustered = plan.filters[7].predicate();
    let pruner = ZoneMapPruner::new(&*store, &clustered);
    let grid: Vec<bool> = (0..rows)
        .step_by(exec.morsel_rows.max(1))
        .map(|start| pruner.may_match(start, exec.morsel_rows.min(rows - start)))
        .collect();
    m.push((
        "relational.pruned_morsel_share",
        grid.iter().filter(|may| !**may).count() as f64 / grid.len().max(1) as f64,
    ));

    // ---- sdbms-storage ----------------------------------------------------------
    let pool = Arc::clone(&dbms.env().pool);
    let pages: Vec<_> = store.data_page_ids().into_iter().take(64).collect();
    let fetch_all = |times: &mut Vec<f64>| {
        for pid in &pages {
            let start = Instant::now();
            std::hint::black_box(pool.fetch(*pid).is_ok());
            times.push(start.elapsed().as_nanos() as f64);
        }
    };
    let (mut hit, mut miss) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        // Flushed first, so discarding loses nothing; every fetch
        // after it goes to the disk, every fetch after that does not.
        if pool.flush_all().is_ok() && pool.discard_frames().is_ok() {
            fetch_all(&mut miss);
            fetch_all(&mut hit);
        }
    }
    m.push(("storage.fetch_hit_ns", median(&hit)));
    m.push(("storage.fetch_miss_ns", median(&miss)));

    // ---- sdbms-core / sdbms-summary / sdbms-management (reads) -------------------
    m.push((
        "core.snapshot_us",
        p50_us(budget, |_| {
            std::hint::black_box(dbms.snapshot(VIEW).ok());
        }),
    ));
    let exact = AccuracyPolicy::Exact;
    m.push((
        "core.compute_hit_us",
        p50_us(budget, |_| {
            std::hint::black_box(
                dbms.compute(VIEW, "INCOME", &StatFunction::Mean, exact)
                    .ok(),
            );
        }),
    ));
    m.push((
        "core.compute_miss_us",
        p50_us(budget, |i| {
            // A function nobody asked for yet: a Summary-DB miss.
            let f = StatFunction::TrimmedMean(1 + (i % 400) as u16, 999 - (i / 400) as u16);
            std::hint::black_box(dbms.compute(VIEW, "INCOME", &f, exact).ok());
        }),
    ));
    if let Ok(view) = dbms.view(VIEW) {
        m.push((
            "summary.lookup_us",
            p50_us(budget, |_| {
                std::hint::black_box(
                    view.summary
                        .lookup_fresh("INCOME", &StatFunction::Mean)
                        .ok(),
                );
            }),
        ));
    }
    m.push((
        "management.checkpoint_us",
        p50_us(budget, |_| {
            std::hint::black_box(dbms.checkpoint(VIEW, "probe").ok());
        }),
    ));

    // ---- writes: from here on the view no longer matches the model ----------------
    if let Some(mut copy) = timed_clone(&store, budget, &mut m) {
        m.push((
            "columnar.set_cell_us",
            p50_us(budget, |i| {
                let value = Value::Float(i as f64);
                std::hint::black_box(copy.set_cell((i * 7_919) % rows, "INCOME", value).ok());
            }),
        ));
    }
    drop(store);
    let narrow = |dbms: &mut StatDbms, i: usize, attr: &str, value: Value| {
        let first = (i * 7_919) % (rows - 8);
        dbms.update_where(
            VIEW,
            &narrow_predicate(first, 5),
            &[(attr, Expr::Literal(value))],
        )
        .is_ok()
    };
    m.push((
        "core.update_narrow_us",
        p50_us(budget, |i| {
            std::hint::black_box(narrow(dbms, i, "HOURS_WORKED", Value::Int((i % 60) as i64)));
        }),
    ));
    let mut read_after = Vec::new();
    for i in 0..budget.min_calls.max(8) {
        narrow(dbms, i, "INCOME", Value::Float(1_000.0 + i as f64));
        let start = Instant::now();
        std::hint::black_box(
            dbms.compute(VIEW, "INCOME", &StatFunction::Median, exact)
                .ok(),
        );
        read_after.push(start.elapsed().as_secs_f64() * 1e6);
    }
    m.push(("summary.post_commit_read_us", median(&read_after)));
    let few = Budget {
        min_calls: 3,
        ..budget
    };
    m.push((
        "core.commit_batch_us",
        p50_us(few, |i| {
            let staged = dbms.begin_batch(VIEW).and_then(|batch| {
                for k in 0..5 {
                    dbms.batch_stage(
                        batch,
                        BatchOp::SetCell {
                            row: (i * 31 + k * 7_919) % rows,
                            attribute: "INCOME".to_string(),
                            value: Value::Float((i * 5 + k) as f64),
                        },
                    )?;
                }
                dbms.commit_batch(batch)
            });
            std::hint::black_box(staged.ok());
        }),
    ));
    let mut state = 0x5EED_u64;
    m.push((
        "core.update_broad_us",
        p50_us(few, |_| {
            std::hint::black_box(seeded_income_update(&mut state).apply(dbms, VIEW).ok());
        }),
    ));
    m
}

/// `columnar.boxed_clone_us`, and the last clone for further probes.
fn timed_clone(
    store: &Store,
    budget: Budget,
    m: &mut Metrics,
) -> Option<Box<dyn TableStore + Send + Sync>> {
    let mut last = None;
    let us = p50_us(
        Budget {
            min_calls: 3,
            ..budget
        },
        |_| last = store.boxed_clone().ok(),
    );
    m.push(("columnar.boxed_clone_us", us));
    last
}

/// `core.rollback_us`: a checkpoint, one narrow write, the rollback.
pub fn rollback_us(dbms: &mut StatDbms, rows: usize, budget: Budget) -> f64 {
    let mut times = Vec::new();
    for i in 0..budget.min_calls.max(5) {
        let label = format!("probe-rollback-{i}");
        let first = (i * 7_919) % (rows - 8);
        let wrote = dbms.checkpoint(VIEW, &label).is_ok()
            && dbms
                .update_where(
                    VIEW,
                    &narrow_predicate(first, 5),
                    &[("HOURS_WORKED", Expr::Literal(Value::Int(41)))],
                )
                .is_ok();
        let start = Instant::now();
        if wrote && dbms.rollback_to_checkpoint(VIEW, &label).is_ok() {
            times.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    median(&times)
}

/// `core.recover_s`: crash, discard the buffered frames, restart,
/// recover. The pool is flushed first: under the volatile policy a
/// write does not flush, and the engine cannot come back from losing
/// pages its in-memory file state still lists. The durability check
/// proper is `clean_update`'s, which does not flush.
pub fn recover_s(dbms: &mut StatDbms) -> f64 {
    if dbms.env().pool.flush_all().is_err() {
        return f64::NAN;
    }
    dbms.env().injector.crash_now();
    let start = Instant::now();
    let ok = dbms.env().pool.discard_frames().is_ok() && dbms.recover().is_ok();
    if ok {
        start.elapsed().as_secs_f64()
    } else {
        f64::NAN
    }
}

/// Probes of `sdbms-serve`, on a server over the same engine. Returns
/// the engine when the server has shut down.
pub fn serve(
    dbms: StatDbms,
    config: ServeConfig,
    rows: usize,
    budget: Budget,
) -> (Metrics, Option<StatDbms>) {
    let mut m = Metrics::new();
    let server = Server::start(dbms, config);
    m.push((
        "serve.session_open_us",
        p50_us(budget, |_| {
            if let Ok(s) = server.open_session("probe", VIEW) {
                let _ = server.close_session(s);
            }
        }),
    ));
    let Ok(session) = server.open_session("probe", VIEW) else {
        return (m, server.shutdown());
    };
    let mean = Query::summary("INCOME", StatFunction::Mean);
    let hit = || {
        std::hint::black_box(server.query(session, mean.clone()).is_ok());
    };
    hit();
    m.push(("serve.hit_call_us", p50_us(budget, |_| hit())));
    // A quantile nobody asked for yet at this version: a front miss.
    // Commits before this point moved the version, so earlier passes
    // cannot have filled these keys.
    m.push((
        "serve.miss_call_us",
        p50_us(budget, |i| {
            let f = StatFunction::Quantile(1 + (i % 999) as u16);
            std::hint::black_box(server.query(session, Query::summary("INCOME", f)).is_ok());
        }),
    ));
    // What the serving layer adds to a miss, measured where the engine
    // work is smallest and so cannot hide it: a `Row` read nobody asked
    // for yet, minus the same `Snapshot::row` made directly afterwards.
    if let Ok(snap) = server.with_dbms(|d| d.snapshot(VIEW)) {
        let mut overheads = Vec::new();
        p50_us(budget, |i| {
            let index = (i * 7_919 + 13) % rows;
            let start = Instant::now();
            std::hint::black_box(server.query(session, Query::Row { index }).is_ok());
            let call = start.elapsed().as_secs_f64() * 1e6;
            let start = Instant::now();
            std::hint::black_box(snap.row(index).ok());
            overheads.push(call - start.elapsed().as_secs_f64() * 1e6);
        });
        m.push(("serve.overhead_us", median(&overheads)));
    }

    // Hit-path scaling: the same hit loop from one thread, then two.
    let rate = |threads: usize| {
        let window = (budget.seconds * 2.0).max(0.05);
        let total: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let Ok(s) = server.open_session("probe", VIEW) else {
                            return 0;
                        };
                        let begun = Instant::now();
                        let mut n = 0usize;
                        while begun.elapsed().as_secs_f64() < window {
                            std::hint::black_box(server.query(s, mean.clone()).is_ok());
                            n += 1;
                        }
                        let _ = server.close_session(s);
                        n
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
        });
        total as f64 / window
    };
    let one = rate(1);
    m.push(("serve.scale_2v1", rate(2) / one));

    // A commit, and what the other analyst waits across it.
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let (commits, reader) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut lats: Vec<(u64, u64)> = Vec::new();
            if let Ok(s) = server.open_session("probe", VIEW) {
                while !stop.load(Ordering::SeqCst) {
                    let start = Instant::now();
                    std::hint::black_box(server.query(s, mean.clone()).is_ok());
                    lats.push((
                        origin.elapsed().as_nanos() as u64,
                        start.elapsed().as_nanos() as u64,
                    ));
                }
                let _ = server.close_session(s);
            }
            lats
        });
        let mut commits = Vec::new();
        for i in 0..3 {
            let edit = Edit {
                row: (i * 7_919) % rows,
                value: 1_234.5 + i as f64,
            };
            let start = origin.elapsed().as_nanos() as u64;
            let ok = server.commit(session, vec![edit.batch_op()]).is_ok();
            let end = origin.elapsed().as_nanos() as u64;
            if ok {
                commits.push((start, end));
            }
            // Let the reader run free between commits.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        stop.store(true, Ordering::SeqCst);
        (commits, reader.join().unwrap_or_default())
    });
    let commit_us: Vec<f64> = commits.iter().map(|(s, e)| (e - s) as f64 / 1e3).collect();
    m.push(("serve.commit_call_us", median(&commit_us)));
    let stalls: Vec<f64> = commits
        .iter()
        .map(|(start, end)| {
            reader
                .iter()
                // Requests that were in flight at some point of the commit.
                .filter(|(done, lat)| *done >= *start && done.saturating_sub(*lat) <= *end)
                .map(|(_, lat)| *lat as f64 / 1e3)
                .fold(0.0, f64::max)
        })
        .collect();
    m.push(("serve.reader_stall_us", median(&stalls)));
    let _ = server.close_session(session);
    (m, server.shutdown())
}
