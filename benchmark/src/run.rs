//! One benchmark run: generate inputs, set the fixture up, run the
//! measured passes, check every output against the reference model,
//! and turn what was recorded into named metrics.
//!
//! A run with tracing off reports the end-to-end metrics. A traced run
//! measures the same workload briefly with tracing off and again with
//! tracing on (one analyst, spans, sampled replays), then probes every
//! layer, and reports the per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use sdbms_core::StatDbms;
use sdbms_serve::{ServeConfig, Server};
use sdbms_storage::{CostModel, IoSnapshot};
use sdbms_summary::CacheStats;

use crate::analyst;
use crate::clean::{self, CleanModel};
use crate::config::{Config, Workload};
use crate::fixture::{self, Model, SetupTimes, VIEW};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::{self, Budget};
use crate::record::{PassLog, Timing};
use crate::schedule::{schedule_hash, AnalystPlan, CleanStream, ServePlan};
use crate::serve;
use crate::stats::{highest_supported_percentile, median, percentile, Summary};
use crate::trace::{self, Tracer};

/// What the caller asked for.
#[derive(Debug, Clone)]
pub struct Request {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where a traced run writes `trace.<workload>.json`.
    pub out_dir: std::path::PathBuf,
}

/// One run's outcome.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` — end-to-end metrics with tracing off,
    /// per-layer metrics with tracing on.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping: config, spreads, design targets.
    pub detail: Json,
}

/// Counters a pass collected beside its latency samples.
#[derive(Default)]
struct PassFacts {
    attempted: u64,
    /// Rejected, errored, inconsistent or wrong against the oracle.
    failed: u64,
    writes: u64,
    io: IoSnapshot,
    cache: (CacheStats, CacheStats),
    front_hits: u64,
    front_evictions: u64,
    rejections: serve::Rejections,
    summary_hits: u64,
    pinned_max: usize,
    epoch_lag_max: u64,
}

struct Pass {
    log: PassLog,
    facts: PassFacts,
    /// Class predicate selecting writes among the samples.
    is_write: fn(u8) -> bool,
}

/// The fixture in whichever shape the workload drives it.
enum Engine {
    Direct(Box<StatDbms>),
    Served(Server),
}

struct Fixture {
    engine: Engine,
    times: SetupTimes,
}

fn set_up(cfg: &Config, raw: &sdbms_data::DataSet) -> Result<Fixture, String> {
    let (dbms, mut times) = fixture::build_engine(cfg, raw).map_err(|e| e.to_string())?;
    if !cfg.workload.is_serve() {
        return Ok(Fixture {
            engine: Engine::Direct(Box::new(dbms)),
            times,
        });
    }
    let start = Instant::now();
    let server = Server::start(dbms, serve::serve_config(cfg));
    for _ in 0..cfg.analysts {
        let session = server
            .open_session("analysts", VIEW)
            .map_err(|e| e.to_string())?;
        server.close_session(session).map_err(|e| e.to_string())?;
    }
    times.serve_s = start.elapsed().as_secs_f64();
    Ok(Fixture {
        engine: Engine::Served(server),
        times,
    })
}

fn tear_down(fixture: Fixture) {
    if let Engine::Served(server) = fixture.engine {
        drop(server.shutdown());
    }
}

/// Run the benchmark as `req` describes.
pub fn run(req: &Request) -> Result<Outcome, String> {
    let cfg = Config::of(req.workload, req.quick);
    let started = Instant::now();
    let raw = fixture::generate(&cfg, req.seed).map_err(|e| e.to_string())?;
    let generate_s = started.elapsed().as_secs_f64();

    // Set up several times; the median is `setup_s`, the last fixture
    // is the one measured.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut fixture = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some(previous) = fixture.take() {
            tear_down(previous);
        }
        let built = set_up(&cfg, &raw)?;
        setups.push(built.times);
        fixture = Some(built);
    }
    let Some(Fixture { engine, .. }) = fixture else {
        return Err("no fixture".to_string());
    };
    let (allocated_pages, store_bytes_per_row) = {
        let read = |d: &StatDbms| {
            (
                d.env().disk.allocated_pages(),
                fixture::store_bytes_per_row(d, cfg.rows),
            )
        };
        match &engine {
            Engine::Direct(d) => read(d),
            Engine::Served(s) => s.with_dbms(read),
        }
    };

    let mut model = Model::new(raw);
    // What "the same seed gives the same inputs" means, checkable from
    // outside: the hash of each analyst's first thousand operations.
    let schedule = schedule_hash(&cfg, &model, req.seed, 1_000);
    // A traced run splits its time between an untraced pass of the
    // workload as it is, an untraced single-analyst baseline where the
    // workload has more than one analyst, and the traced pass.
    let shares = if !req.trace {
        1.0
    } else if cfg.analysts > 1 {
        3.0
    } else {
        2.0
    };
    let seconds = req.seconds / shares;
    let mut tracer = Tracer::new(Instant::now(), req.seed, cfg.trace_sample_every);
    let measured = match engine {
        Engine::Served(server) => {
            measure_served(server, &cfg, req, seconds, &mut model, &mut tracer)?
        }
        Engine::Direct(dbms) => match cfg.workload {
            Workload::CleanUpdate => measure_clean(*dbms, &cfg, req, seconds, model, &mut tracer),
            _ => measure_analyst(*dbms, &cfg, req, seconds, &model, &mut tracer),
        },
    };

    let window_list = measured.main.log.windows(cfg.warmup_windows);
    if window_list.is_empty() {
        return Err("the measured pass completed no window; raise --seconds".to_string());
    }
    let timing = Timing::of(&window_list);
    let setup = Summary::of(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>());
    let attempted: u64 = measured.passes().map(|p| p.facts.attempted).sum();
    let mut failed: u64 = measured.passes().map(|p| p.facts.failed).sum();
    failed += measured.close_out.map_or(0, |c| c.wrong);

    // Design targets, printed with every run.
    let facts = &measured.main.facts;
    let front_hit_share = share(facts.front_hits, facts.attempted);
    let summary_hit_share = share(facts.summary_hits, facts.attempted);
    let page_reads_per_op = share(facts.io.page_reads, facts.attempted);
    eprintln!(
        "[{}] windows {}  ops {}  failed {failed}  front_hit_share {front_hit_share:.4}  \
         summary_hit_share {summary_hit_share:.4}  page_reads_per_op {page_reads_per_op:.3}  writes {}",
        cfg.workload.name(),
        window_list.len(),
        facts.attempted,
        facts.writes,
    );

    let spread = |s: &Summary| {
        Json::obj(vec![
            ("median", Json::Num(s.median)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
            ("iqr_share", Json::Num(s.iqr_share)),
            ("n", Json::Num(s.n as f64)),
        ])
    };
    let mut detail = vec![
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::Num(req.seed as f64)),
        ("seconds", Json::Num(req.seconds)),
        ("trace", Json::Bool(req.trace)),
        ("config", cfg.to_json()),
        ("windows", Json::Num(window_list.len() as f64)),
        ("schedule_hash", Json::Str(format!("{schedule:016x}"))),
        // The series, in time order: a level shift inside a run (this
        // box serves several times faster for some seconds after it
        // sat idle) is visible here and nowhere else.
        (
            "window_ops_per_s",
            Json::Arr(
                window_list
                    .iter()
                    .map(|w| Json::Num(w.ops_per_s.round()))
                    .collect(),
            ),
        ),
        (
            "spread",
            Json::obj(vec![
                ("setup_s", spread(&setup)),
                ("ops_per_s", spread(&timing.ops_per_s)),
                ("p50_us", spread(&timing.p50_us)),
                ("p95_us", spread(&timing.p95_us)),
            ]),
        ),
        (
            "targets",
            Json::obj(vec![
                ("serve.front_hit_share", Json::Num(front_hit_share)),
                ("summary.hit_share", Json::Num(summary_hit_share)),
                ("storage.page_reads_per_op", Json::Num(page_reads_per_op)),
                ("writes", Json::Num(facts.writes as f64)),
            ]),
        ),
    ];
    if let Some(c) = &measured.close_out {
        detail.push((
            "close_out",
            Json::obj(vec![
                ("checked", Json::Num(c.checked as f64)),
                ("wrong", Json::Num(c.wrong as f64)),
                ("rollback_us", Json::Num(c.rollback_us)),
                ("recover_s", Json::Num(c.recover_s)),
            ]),
        ));
    }

    let values: BTreeMap<&'static str, f64> = if req.trace {
        let mut values = pass_metrics(&cfg, &measured, &timing, &setup, &setups);
        values.insert("failed_share", share(failed, attempted));
        values.insert("storage.allocated_pages", allocated_pages as f64);
        values.insert("data.generate_s", generate_s);
        values.extend(trace_metrics(req, &cfg, &measured, &tracer)?);
        values.extend(probe_metrics(req, &cfg, measured)?);
        values
    } else {
        BTreeMap::from([
            ("setup_s", setup.median),
            ("ops_per_s", timing.ops_per_s.median),
            ("p50_us", timing.p50_us.median),
            ("p95_us", timing.p95_us.median),
            ("store_bytes_per_row", store_bytes_per_row),
            // Read last, so it covers everything the run did.
            ("peak_rss_mb", fixture::peak_rss_mb()),
        ])
    };
    let named: Vec<(&'static str, &'static str)> = if req.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, *unit))
            .collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::with_capacity(named.len());
    for (name, unit) in named {
        // A metric that could not be measured is a failure of the run,
        // not a number: report it, and keep the result line numeric.
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                eprintln!("[{}] {name} could not be measured", cfg.workload.name());
                failed += 1;
                0.0
            }
        };
        metrics.push((name, value, unit));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        detail: Json::obj(detail),
    })
}

fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics that are ratios of public counters, or pooled
/// percentiles, over the untraced pass.
fn pass_metrics(
    cfg: &Config,
    measured: &Measured,
    timing: &Timing,
    setup: &Summary,
    setups: &[SetupTimes],
) -> BTreeMap<&'static str, f64> {
    let main = &measured.main;
    let f = &main.facts;
    let ops = f.attempted.max(1) as f64;
    let per_op = |n: u64| n as f64 / ops;
    let per_commit = |n: u64| share(n, f.writes);
    let pct = |lats: &[u64], p: f64| percentile(lats, p).map_or(0.0, |ns| ns as f64 / 1e3);
    let writes = main.log.latencies(cfg.warmup_windows, main.is_write);
    // The highest percentile the write sample supports, 95 at most.
    let top = highest_supported_percentile(writes.len()).map_or(50.0, |p| p.min(95.0));
    let all = main.log.latencies(cfg.warmup_windows, |_| true);
    let (c0, c1) = f.cache;
    let incremental = c1.incremental_updates - c0.incremental_updates;
    let invalidations = c1.invalidations - c0.invalidations;
    let recomputes = c1.recomputes - c0.recomputes;
    BTreeMap::from([
        (
            "io_milli_per_op",
            per_op(CostModel::default().cost_milli(&f.io)),
        ),
        ("commit_p50_us", pct(&writes, 50.0)),
        ("commit_p95_us", pct(&writes, top)),
        ("serve.request_p99_us", pct(&all, 99.0)),
        ("serve.request_p999_us", pct(&all, 99.9)),
        ("serve.front_hit_share", share(f.front_hits, f.attempted)),
        (
            "serve.front_evictions_per_kop",
            per_op(f.front_evictions) * 1e3,
        ),
        (
            "serve.rejected_share.overload",
            per_op(f.rejections.overload),
        ),
        ("serve.rejected_share.quota", per_op(f.rejections.quota)),
        ("serve.rejected_share.shed", per_op(f.rejections.shed)),
        ("serve.rejected_share.budget", per_op(f.rejections.budget)),
        ("summary.hit_share", share(f.summary_hits, f.attempted)),
        (
            "summary.incremental_share",
            share(incremental, incremental + invalidations + recomputes),
        ),
        ("summary.recomputes_per_commit", per_commit(recomputes)),
        (
            "summary.invalidations_per_commit",
            per_commit(invalidations),
        ),
        ("txn.pinned_snapshots_max", f.pinned_max as f64),
        ("txn.epoch_lag_max", f.epoch_lag_max as f64),
        ("storage.page_reads_per_op", per_op(f.io.page_reads)),
        ("storage.page_writes_per_op", per_op(f.io.page_writes)),
        ("storage.seeks_per_op", per_op(f.io.seeks)),
        (
            "storage.pool_hit_share",
            share(f.io.pool_hits, f.io.pool_hits + f.io.page_reads),
        ),
        (
            "storage.page_writes_per_commit",
            per_commit(f.io.page_writes),
        ),
        ("storage.retries", f.io.retries as f64),
        ("bench.windows", timing.ops_per_s.n as f64),
        ("bench.writes", f.writes as f64),
        ("bench.rep_iqr_share.setup_s", setup.iqr_share),
        ("bench.rep_iqr_share.ops_per_s", timing.ops_per_s.iqr_share),
        ("bench.rep_iqr_share.p50_us", timing.p50_us.iqr_share),
        ("bench.rep_iqr_share.p95_us", timing.p95_us.iqr_share),
        ("core.load_raw_s", median_of(setups, |t| t.load_raw_s)),
        ("core.materialize_s", median_of(setups, |t| t.materialize_s)),
        ("core.warm_summaries_s", median_of(setups, |t| t.warm_s)),
    ])
}

/// Per-layer metrics from the traced pass; writes the trace file.
fn trace_metrics(
    req: &Request,
    cfg: &Config,
    measured: &Measured,
    tracer: &Tracer,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let rate = |p: &Pass| {
        Timing::of(&p.log.windows(cfg.warmup_windows))
            .ops_per_s
            .median
    };
    let untraced = rate(measured.baseline.as_ref().unwrap_or(&measured.main));
    let traced = measured.traced.as_ref().map_or(f64::NAN, rate);
    let summary = trace::summarize(&tracer.spans);
    write_trace(req, cfg, measured.traced.as_ref(), tracer, &summary)?;
    let self_us = |layer: &str| summary.layer_self_us.get(layer).copied().unwrap_or(0.0);
    Ok(BTreeMap::from([
        ("bench.trace_overhead_share", 1.0 - traced / untraced),
        ("trace.self_us.serve", self_us("serve")),
        ("trace.self_us.core", self_us("core")),
        ("trace.self_us.summary", self_us("summary")),
        ("trace.self_us.exec", self_us("exec")),
        ("trace.self_us.relational", self_us("relational")),
        ("trace.self_us.columnar", self_us("columnar")),
        ("trace.self_us.stats", self_us("stats")),
        ("trace.replay_cover_share", summary.replay_cover_share),
        ("trace.sampled_requests", summary.sampled_requests as f64),
    ]))
}

/// Per-layer metrics from the probes. They change the view, so they
/// take the engine and run last.
fn probe_metrics(
    req: &Request,
    cfg: &Config,
    measured: Measured,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let budget = Budget {
        seconds: if req.quick { 0.02 } else { 0.15 },
        min_calls: if req.quick { 3 } else { 9 },
    };
    let mut dbms = measured.dbms;
    // The probes size their predicates from the data; they check no
    // results, so freshly generated data serves.
    let data = fixture::generate(cfg, req.seed)
        .map(Model::new)
        .map_err(|e| e.to_string())?;
    let mut values: BTreeMap<&'static str, f64> =
        probes::engine(&mut dbms, cfg, &data, req.seed, budget)
            .into_iter()
            .collect();
    // `clean_update` measured both while closing its run, after a
    // run's worth of writes; elsewhere a probe does.
    let (rollback_us, recover_s) = match measured.close_out {
        Some(c) => (c.rollback_us, c.recover_s),
        None => (
            probes::rollback_us(&mut dbms, cfg.rows, budget),
            probes::recover_s(&mut dbms),
        ),
    };
    values.insert("core.rollback_us", rollback_us);
    values.insert("core.recover_s", recover_s);
    let config = if cfg.workload.is_serve() {
        serve::serve_config(cfg)
    } else {
        ServeConfig {
            workers: cfg.serve_workers,
            ..ServeConfig::default()
        }
    };
    let (served, _) = probes::serve(dbms, config, cfg.rows, budget);
    values.extend(served);
    Ok(values)
}

fn median_of(setups: &[SetupTimes], f: fn(&SetupTimes) -> f64) -> f64 {
    median(&setups.iter().map(f).collect::<Vec<_>>())
}

struct Measured {
    main: Pass,
    baseline: Option<Pass>,
    traced: Option<Pass>,
    dbms: StatDbms,
    close_out: Option<clean::CloseOut>,
}

impl Measured {
    fn passes(&self) -> impl Iterator<Item = &Pass> {
        [
            Some(&self.main),
            self.baseline.as_ref(),
            self.traced.as_ref(),
        ]
        .into_iter()
        .flatten()
    }
}

fn measure_served(
    server: Server,
    cfg: &Config,
    req: &Request,
    seconds: f64,
    model: &mut Model,
    tracer: &mut Tracer,
) -> Result<Measured, String> {
    let plan = ServePlan::new(cfg);
    let mut one = |analysts: usize, pass_no: u64, tracer: Option<&mut Tracer>| {
        let (io, front, version) = (
            server.with_dbms(StatDbms::io),
            server.cache_stats(),
            server.with_dbms(|d| d.view_version(VIEW)).unwrap_or(0),
        );
        let seed = req.seed.wrapping_add(pass_no);
        let pass = serve::run_pass(&server, &plan, cfg, seed, analysts, seconds, tracer);
        let wrong = serve::check_replies(&plan, model, version, &pass);
        let front_after = server.cache_stats();
        Pass {
            facts: PassFacts {
                attempted: pass.attempted,
                failed: pass.rejections.total() + pass.inconsistent + wrong,
                writes: pass.commits.len() as u64,
                io: server.with_dbms(StatDbms::io).since(&io),
                front_hits: pass.front_hits,
                front_evictions: (front_after.lru_evictions + front_after.ttl_evictions)
                    - (front.lru_evictions + front.ttl_evictions),
                rejections: pass.rejections,
                pinned_max: pass.pinned_max,
                epoch_lag_max: pass.epoch_lag_max,
                ..PassFacts::default()
            },
            log: pass.log,
            is_write: |class| class == serve::COMMIT,
        }
    };
    let main = one(cfg.analysts, 0, None);
    let (baseline, traced) = if req.trace {
        let baseline = (cfg.analysts > 1).then(|| one(1, 1, None));
        (baseline, Some(one(1, 2, Some(tracer))))
    } else {
        (None, None)
    };
    let dbms = server
        .shutdown()
        .ok_or("the server did not hand the engine back")?;
    Ok(Measured {
        main,
        baseline,
        traced,
        dbms,
        close_out: None,
    })
}

fn measure_analyst(
    mut dbms: StatDbms,
    cfg: &Config,
    req: &Request,
    seconds: f64,
    model: &Model,
    tracer: &mut Tracer,
) -> Measured {
    let plan = AnalystPlan::new(cfg, model, req.seed);
    let mut first_miss = 0u64;
    let mut one = |pass_no: u64, tracer: Option<&mut Tracer>| {
        let seed = req.seed.wrapping_add(pass_no);
        let pass = analyst::run_pass(&mut dbms, &plan, cfg, seed, first_miss, seconds, tracer);
        first_miss += pass.misses;
        let wrong = analyst::check(&plan, model, &pass);
        Pass {
            facts: PassFacts {
                attempted: pass.attempted,
                failed: pass.errored + pass.inconsistent + wrong,
                io: pass.io,
                cache: (pass.cache_before, pass.cache_after),
                summary_hits: pass.summary_hits,
                ..PassFacts::default()
            },
            log: pass.log,
            is_write: |_| false,
        }
    };
    let main = one(0, None);
    let traced = req.trace.then(|| one(1, Some(tracer)));
    Measured {
        main,
        baseline: None,
        traced,
        dbms,
        close_out: None,
    }
}

fn measure_clean(
    mut dbms: StatDbms,
    cfg: &Config,
    req: &Request,
    seconds: f64,
    model: Model,
    tracer: &mut Tracer,
) -> Measured {
    let mut clean_model = CleanModel::new(model);
    let mut one = |pass_no: u64, tracer: Option<&mut Tracer>| {
        let seed = req.seed.wrapping_add(pass_no);
        let stream = CleanStream::new(cfg, &clean_model.model, seed);
        let pass = clean::run_pass(&mut dbms, stream, cfg, seed, seconds, tracer);
        let wrong = clean_model.replay(&pass);
        Pass {
            facts: PassFacts {
                attempted: pass.attempted,
                failed: pass.errored + wrong,
                writes: pass.writes,
                io: pass.io,
                cache: (pass.cache_before, pass.cache_after),
                summary_hits: pass.reads_from_cache,
                ..PassFacts::default()
            },
            log: pass.log,
            is_write: clean::is_write,
        }
    };
    let main = one(0, None);
    let traced = req.trace.then(|| one(1, Some(tracer)));
    let close_out = clean::close_out(&mut dbms, &mut clean_model);
    Measured {
        main,
        baseline: None,
        traced,
        dbms,
        close_out: Some(close_out),
    }
}

/// Write `trace.<workload>.json`: every top-level call of the traced
/// pass, then the sampled requests' span trees and counter deltas.
fn write_trace(
    req: &Request,
    cfg: &Config,
    traced: Option<&Pass>,
    tracer: &Tracer,
    summary: &trace::TraceSummary,
) -> Result<(), String> {
    let class_names: &[&str] = match cfg.workload {
        Workload::ServeHot | Workload::ServeMixed => &serve::CLASS_NAMES,
        Workload::AnalystSession => &analyst::CLASS_NAMES,
        Workload::CleanUpdate => &clean::CLASS_NAMES,
    };
    let calls: Vec<Json> = traced
        .iter()
        .flat_map(|p| p.log.samples.iter().flatten())
        .map(|s| {
            Json::Arr(vec![
                Json::Num(f64::from(s.class)),
                Json::Num(s.start_ns() as f64),
                Json::Num(s.end_ns as f64),
            ])
        })
        .collect();
    let header = vec![
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::Num(req.seed as f64)),
        (
            "call_classes",
            Json::Arr(class_names.iter().map(|n| Json::str(n)).collect()),
        ),
        (
            "call_columns",
            Json::Arr(
                ["class", "start_ns", "end_ns"]
                    .into_iter()
                    .map(Json::str)
                    .collect(),
            ),
        ),
        ("calls", Json::Arr(calls)),
    ];
    std::fs::create_dir_all(&req.out_dir).map_err(|e| e.to_string())?;
    let path = req
        .out_dir
        .join(format!("trace.{}.json", cfg.workload.name()));
    std::fs::write(&path, trace::render(header, tracer, summary)).map_err(|e| e.to_string())?;
    eprintln!(
        "[{}] trace: {} sampled requests, replay covers {:.3} of the call, written to {}",
        cfg.workload.name(),
        summary.sampled_requests,
        summary.replay_cover_share,
        path.display()
    );
    Ok(())
}
