//! `serve_hot` and `serve_mixed`: closed-loop analysts on a `Server`.
//!
//! Closed loop, the paper's interactive-analyst model: each analyst
//! thread sends its next request only after the previous reply.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sdbms_core::StatDbms;
use sdbms_serve::{
    BreakerConfig, BrownoutConfig, Payload, Query, Response, ServeConfig, ServeError, Served,
    Server, SessionId,
};
use sdbms_storage::IoSnapshot;

use crate::config::{Config, Workload};
use crate::fixture::{Model, VIEW};
use crate::record::{Pacer, PassLog, Sample};
use crate::schedule::{Edit, ServeOp, ServePlan};
use crate::trace::{CounterDelta, Span, Tracer, ROOT};

/// Sample classes.
pub const HIT: u8 = 0;
pub const MISS: u8 = 1;
pub const COMMIT: u8 = 2;

pub const CLASS_NAMES: [&str; 3] = ["serve.query_hit", "serve.query_miss", "serve.commit"];

/// The server shape of a serve workload. `serve_mixed` turns every
/// request-lifecycle guard on, at sizes two analysts never trip.
pub fn serve_config(cfg: &Config) -> ServeConfig {
    let base = ServeConfig {
        workers: cfg.serve_workers,
        cache_capacity: cfg.cache_capacity,
        cache_ttl: cfg.cache_ttl,
        ..ServeConfig::default()
    };
    if cfg.workload == Workload::ServeMixed {
        base.deadline_ops(10_000_000)
            .breaker(BreakerConfig {
                failure_threshold: 5,
                open_ticks: 100,
                half_open_probes: 2,
            })
            .brownout(BrownoutConfig {
                tier1_inflight: 32,
                tier2_inflight: 48,
                hysteresis: 4,
            })
    } else {
        base
    }
}

/// Why requests were turned away, by kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rejections {
    pub overload: u64,
    pub quota: u64,
    pub shed: u64,
    pub budget: u64,
    pub errored: u64,
}

impl Rejections {
    fn count(&mut self, e: &ServeError) {
        match e {
            ServeError::Overloaded { .. } => self.overload += 1,
            ServeError::QuotaExceeded { .. } => self.quota += 1,
            ServeError::Brownout { .. } | ServeError::BreakerOpen { .. } => self.shed += 1,
            ServeError::DeadlineExceeded | ServeError::Cancelled => self.budget += 1,
            _ => self.errored += 1,
        }
    }

    fn merge(&mut self, o: &Rejections) {
        self.overload += o.overload;
        self.quota += o.quota;
        self.shed += o.shed;
        self.budget += o.budget;
        self.errored += o.errored;
    }

    pub fn total(&self) -> u64 {
        self.overload + self.quota + self.shed + self.budget + self.errored
    }
}

/// What one pass over the server produced.
#[derive(Default)]
pub struct ServePass {
    pub log: PassLog,
    pub attempted: u64,
    pub rejections: Rejections,
    /// Replies that differed from an earlier reply to the same query
    /// at the same version.
    pub inconsistent: u64,
    pub front_hits: u64,
    /// One reply per `(query, version)` seen, for the oracle.
    pub replies: HashMap<(usize, u64), Payload>,
    /// Each committed edit with the version it produced.
    pub commits: Vec<(Edit, u64)>,
    /// Largest `(pinned snapshots, epoch lag)` the pacer observed at
    /// its window boundaries.
    pub pinned_max: usize,
    pub epoch_lag_max: u64,
}

struct AnalystResult {
    samples: Vec<Sample>,
    /// The pacing analyst's window boundaries; empty for the others.
    boundaries: Vec<u64>,
    pass: ServePass,
}

/// Keep the first reply per `(query, version)`; a later reply that
/// differs from it is inconsistent.
fn note_reply(pass: &mut ServePass, key: (usize, u64), payload: &Payload) {
    match pass.replies.get(&key) {
        Some(seen) if !same_payload(seen, payload) => pass.inconsistent += 1,
        Some(_) => {}
        None => {
            pass.replies.insert(key, payload.clone());
        }
    }
}

fn same_payload(a: &Payload, b: &Payload) -> bool {
    // `==` first: cheap, and exact for everything but NaN.
    a == b || format!("{a:?}") == format!("{b:?}")
}

/// Run one closed-loop pass of `analysts` analysts for about `seconds`
/// of measured time (after `cfg.warmup_windows` warm-up windows).
/// With a tracer the pass must have one analyst.
pub fn run_pass(
    server: &Server,
    plan: &ServePlan,
    cfg: &Config,
    seed: u64,
    analysts: usize,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> ServePass {
    let origin = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.rebase(origin);
    }
    let stop = AtomicBool::new(false);
    let results: Vec<AnalystResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..analysts)
            .map(|analyst| {
                let tracer = if analyst == 0 { tracer.take() } else { None };
                let stop = &stop;
                scope.spawn(move || {
                    analyst_loop(
                        server, plan, cfg, seed, analyst, seconds, origin, stop, tracer,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analyst thread panicked"))
            .collect()
    });
    let mut pass = ServePass::default();
    for r in results {
        pass.log.samples.push(r.samples);
        if !r.boundaries.is_empty() {
            pass.log.boundaries = r.boundaries;
        }
        pass.attempted += r.pass.attempted;
        pass.rejections.merge(&r.pass.rejections);
        pass.inconsistent += r.pass.inconsistent;
        pass.front_hits += r.pass.front_hits;
        pass.commits.extend(r.pass.commits);
        pass.pinned_max = pass.pinned_max.max(r.pass.pinned_max);
        pass.epoch_lag_max = pass.epoch_lag_max.max(r.pass.epoch_lag_max);
        for (key, payload) in &r.pass.replies {
            note_reply(&mut pass, *key, payload);
        }
    }
    pass
}

#[allow(clippy::too_many_arguments)]
fn analyst_loop(
    server: &Server,
    plan: &ServePlan,
    cfg: &Config,
    seed: u64,
    analyst: usize,
    seconds: f64,
    origin: Instant,
    stop: &AtomicBool,
    mut tracer: Option<&mut Tracer>,
) -> AnalystResult {
    let now = || origin.elapsed().as_nanos() as u64;
    let mut out = AnalystResult {
        samples: Vec::with_capacity((seconds * 60_000.0) as usize + 4_096),
        boundaries: Vec::new(),
        pass: ServePass::default(),
    };
    let session = match server.open_session("analysts", VIEW) {
        Ok(s) => s,
        Err(e) => {
            out.pass.attempted += 1;
            out.pass.rejections.count(&e);
            stop.store(true, Ordering::SeqCst);
            return out;
        }
    };
    let mut pacer =
        (analyst == 0).then(|| Pacer::new(now(), cfg.window_ops, cfg.warmup_windows, seconds));
    for (request, op) in plan.stream(seed, analyst).enumerate() {
        if pacer.is_none() && stop.load(Ordering::SeqCst) {
            break;
        }
        out.pass.attempted += 1;
        let sampled = tracer.as_mut().is_some_and(|t| t.sample());
        let before = sampled.then(|| Counters::read(server));
        let (start, result, query) = match op {
            ServeOp::Query(qi) => {
                let query = plan.universe[qi].clone();
                let start = now();
                (start, server.query(session, query), Some(qi))
            }
            ServeOp::Commit(edit) => {
                let ops = vec![edit.batch_op()];
                let start = now();
                let result = server.commit(session, ops);
                if let Ok(resp) = &result {
                    out.pass.commits.push((edit, resp.version));
                }
                (start, result, None)
            }
        };
        let end = now();
        match result {
            Ok(resp) => {
                let class = match resp.served {
                    Served::FrontCache => HIT,
                    Served::Write => COMMIT,
                    Served::Computed | Served::Fallback => MISS,
                };
                out.samples.push(Sample::new(start, end, class));
                if class == HIT {
                    out.pass.front_hits += 1;
                }
                if let Some(qi) = query {
                    note_reply(&mut out.pass, (qi, resp.version), &resp.payload);
                }
                if let (Some(t), Some(before)) = (tracer.as_deref_mut(), before) {
                    let request = request as u32;
                    t.push(Span {
                        name: CLASS_NAMES[class as usize],
                        start_ns: start,
                        end_ns: end,
                        parent: ROOT,
                        request,
                    });
                    t.counters
                        .push(before.delta(&Counters::read(server), request));
                    if let (MISS, Some(qi)) = (class, query) {
                        replay(t, server, &plan.universe[qi], request);
                    }
                }
            }
            Err(e) => out.pass.rejections.count(&e),
        }
        if let Some(done) = pacer.as_mut().and_then(|p| p.tick(now)) {
            let (epoch, oldest) = server.epoch_status();
            out.pass.epoch_lag_max = out.pass.epoch_lag_max.max(oldest.map_or(0, |o| epoch - o));
            let pinned = server.with_dbms(StatDbms::pinned_snapshots);
            out.pass.pinned_max = out.pass.pinned_max.max(pinned);
            if done {
                stop.store(true, Ordering::SeqCst);
                break;
            }
        }
    }
    out.boundaries = pacer.map(Pacer::into_boundaries).unwrap_or_default();
    close(server, session);
    out
}

fn close(server: &Server, session: SessionId) {
    // The session was opened above; closing it cannot fail, and a
    // failure would only leave a pin the shutdown clears anyway.
    let _ = server.close_session(session);
}

/// Re-execute a missed query's path step by step on the same version.
fn replay(t: &mut Tracer, server: &Server, query: &Query, request: u32) {
    let parent = t.open("bench.replay", ROOT, request);
    let snap = t.step("core.snapshot", parent, request, || {
        server.with_dbms(|d| d.snapshot(VIEW))
    });
    if let Ok(snap) = snap {
        match query {
            Query::Summary {
                attribute,
                function,
            } => {
                let col = t.step("columnar.read_column", parent, request, || {
                    snap.column(attribute)
                });
                if let Ok(col) = col {
                    let _ = t.step("stats.compute", parent, request, || function.compute(&col));
                }
            }
            Query::Column { attribute } => {
                let _ = t.step("columnar.read_column", parent, request, || {
                    snap.column(attribute)
                });
            }
            Query::Row { index } => {
                let _ = t.step("columnar.read_row", parent, request, || snap.row(*index));
            }
        }
    }
    t.close(parent);
}

/// The public counters read at a sampled request's boundaries.
struct Counters {
    io: IoSnapshot,
    front_hits: u64,
    front_misses: u64,
    front_evictions: u64,
    served: u64,
}

impl Counters {
    fn read(server: &Server) -> Counters {
        let front = server.cache_stats();
        Counters {
            io: server.with_dbms(StatDbms::io),
            front_hits: front.hits,
            front_misses: front.misses,
            front_evictions: front.lru_evictions + front.ttl_evictions,
            served: server.metrics().served,
        }
    }

    fn delta(&self, after: &Counters, request: u32) -> CounterDelta {
        let io = after.io.since(&self.io);
        CounterDelta {
            request,
            values: vec![
                ("page_reads", io.page_reads),
                ("page_writes", io.page_writes),
                ("seeks", io.seeks),
                ("pool_hits", io.pool_hits),
                ("front_hits", after.front_hits - self.front_hits),
                ("front_misses", after.front_misses - self.front_misses),
                (
                    "front_evictions",
                    after.front_evictions - self.front_evictions,
                ),
                ("served", after.served - self.served),
            ],
        }
    }
}

/// Compare every distinct reply with a serial recompute on the
/// reference model at the reply's version. `model` must be at
/// `first_version` (the version the pass started from) and is left at
/// the last committed version. Returns the number of wrong replies.
pub fn check_replies(
    plan: &ServePlan,
    model: &mut Model,
    first_version: u64,
    pass: &ServePass,
) -> u64 {
    let mut by_version: Vec<(u64, usize, &Payload)> = pass
        .replies
        .iter()
        .map(|((qi, version), payload)| (*version, *qi, payload))
        .collect();
    by_version.sort_by_key(|(version, qi, _)| (*version, *qi));
    let mut commits = pass.commits.clone();
    commits.sort_by_key(|(_, version)| *version);
    let mut commits = commits.into_iter().peekable();
    // Answers that only an INCOME edit can change are recomputed per
    // version; the rest are computed once.
    let mut stable: HashMap<usize, Vec<u8>> = HashMap::new();
    let mut wrong = 0u64;
    let mut at = first_version;
    for (version, qi, payload) in by_version {
        while at < version {
            match commits.next_if(|(_, v)| *v <= version) {
                Some((edit, v)) => {
                    edit.apply(model);
                    at = v;
                }
                None => break,
            }
        }
        let query = &plan.universe[qi];
        let volatile = match query {
            Query::Summary { attribute, .. } | Query::Column { attribute } => attribute == "INCOME",
            Query::Row { .. } => true,
        };
        let got = canonical(payload.clone(), version);
        let ok = if volatile {
            expected(model, query).is_some_and(|want| canonical(want, version) == got)
        } else {
            let want = stable.entry(qi).or_insert_with(|| {
                expected(model, query).map_or_else(Vec::new, |p| canonical(p, version))
            });
            *want == got
        };
        if !ok {
            wrong += 1;
        }
    }
    for (edit, _) in commits {
        edit.apply(model);
    }
    wrong
}

fn expected(model: &Model, query: &Query) -> Option<Payload> {
    match query {
        Query::Summary {
            attribute,
            function,
        } => function
            .compute(&model.column(attribute))
            .ok()
            .map(Payload::Summary),
        Query::Column { attribute } => Some(Payload::Column(model.column(attribute))),
        Query::Row { index } => model
            .data
            .row(*index)
            .ok()
            .map(|r| Payload::Row(r.to_vec())),
    }
}

/// `Response::canonical_bytes` of a payload: the byte form the
/// repo's differential suites compare.
fn canonical(payload: Payload, version: u64) -> Vec<u8> {
    Response {
        payload,
        served: Served::Computed,
        view: VIEW.to_string(),
        version,
        generation: 0,
        io: IoSnapshot::default(),
        cost_milli: 0,
        tick: 0,
    }
    .canonical_bytes()
}
