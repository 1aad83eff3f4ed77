//! End-to-end request-lifecycle tests: deadlines, cooperative
//! cancellation, circuit breakers, and brownout load-shedding
//! (DESIGN.md §16).
//!
//! Everything here is deterministic: deadlines are *op budgets* over
//! the storage layer's device-operation clock, breaker windows are
//! logical request ticks, and brownout watermarks are exact in-flight
//! counts — no wall-clock sleeps, no flaky timing.

use sdbms::core::StatFunction;
use sdbms::serve::{
    BreakerConfig, BreakerState, BrownoutConfig, BrownoutTier, Query, QuotaConfig, ServeConfig,
    ServeError, Served, Server,
};
use sdbms::storage::{CancelToken, DeviceFaults, FaultPlan};
use sdbms_testkit::{CensusFixture, CENSUS_VIEW};

fn q_mean() -> Query {
    Query::summary("INCOME", StatFunction::Mean)
}

/// Rows for the deadline tests: five 256-row segments, so a cold
/// INCOME scan costs five device reads — enough for a small op budget
/// to trip mid-scan. (The default 160-row fixture fits one segment and
/// costs a single read, which no positive budget can interrupt.)
const WIDE_ROWS: usize = 1200;

/// The fault-free answer, computed on an identical twin fixture so the
/// served bytes can be checked without touching the server under test.
fn twin_answer_for(fixture: &CensusFixture, query: &Query) -> Vec<u8> {
    let server = Server::start(
        fixture.build().expect("twin fixture"),
        ServeConfig::default(),
    );
    let session = server.open_session("twin", CENSUS_VIEW).expect("session");
    let resp = server.query(session, query.clone()).expect("twin query");
    resp.canonical_bytes()
}

fn twin_answer(query: &Query) -> Vec<u8> {
    twin_answer_for(&CensusFixture::new(), query)
}

/// Force the next reads to hit the (fault-injectable) disk: flush
/// dirty pages, then drop every clean frame.
fn cold_pool(server: &Server) {
    server.with_dbms_mut(|dbms| {
        dbms.env().pool.flush_all().expect("flush");
        dbms.env().pool.discard_frames().expect("discard");
    });
}

#[test]
fn deadline_storm_returns_typed_errors_and_eventually_serves_exact_bytes() {
    let fixture = CensusFixture::new().rows(WIDE_ROWS);
    let want = twin_answer_for(&fixture, &q_mean());
    // Uncached so every attempt does real engine work under its budget.
    let server = Server::start(
        fixture.build().expect("fixture"),
        ServeConfig {
            deadline_ops: Some(3),
            ..ServeConfig::default().uncached()
        },
    );
    let session = server.open_session("t", CENSUS_VIEW).expect("session");
    cold_pool(&server);

    // Storm: each attempt gets a 3-op budget against a 5-read cold
    // scan. Early attempts trip; each trip still leaves its admitted
    // pages resident, so the pool warms monotonically and a later
    // attempt finishes within budget. Every failure must be the typed
    // deadline error — never a partial payload.
    let mut trips = 0u64;
    let mut served = None;
    for _ in 0..64 {
        match server.query(session, q_mean()) {
            Ok(resp) => {
                served = Some(resp);
                break;
            }
            Err(ServeError::DeadlineExceeded) => trips += 1,
            Err(other) => panic!("storm may only trip deadlines, got {other}"),
        }
    }
    assert!(trips >= 1, "a 3-op budget must trip on a cold pool");
    let resp = served.expect("the pool warms within the attempt bound");
    assert_eq!(
        resp.canonical_bytes(),
        want,
        "a completed response is byte-identical to the fault-free answer"
    );
    assert_eq!(server.metrics().deadline_trips, trips);
}

#[test]
fn tripped_queries_never_poison_the_front_cache() {
    let fixture = CensusFixture::new().rows(WIDE_ROWS);
    let want = twin_answer_for(&fixture, &q_mean());
    let server = Server::start(fixture.build().expect("fixture"), ServeConfig::default());
    let session = server.open_session("t", CENSUS_VIEW).expect("session");
    cold_pool(&server);

    // A 1-op budget cannot finish a five-read cold scan: typed error,
    // and the front cache admits nothing.
    let err = server
        .query_with_token(session, q_mean(), CancelToken::with_op_budget(1))
        .expect_err("1 op cannot serve a cold query");
    assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");
    assert_eq!(server.cache_stats().insertions, 0, "no partial was cached");

    // The same query unbounded computes, caches, and matches the twin.
    let ok = server.query(session, q_mean()).expect("unbounded query");
    assert_eq!(ok.served, Served::Computed);
    assert_eq!(ok.canonical_bytes(), want);
    assert_eq!(server.cache_stats().insertions, 1);
    let hit = server.query(session, q_mean()).expect("now cached");
    assert_eq!(hit.served, Served::FrontCache);
    assert_eq!(hit.canonical_bytes(), want);
}

#[test]
fn client_cancellation_is_typed_and_neutral_to_the_breaker() {
    let server = Server::start(
        CensusFixture::new().build().expect("fixture"),
        ServeConfig {
            // A hair-trigger breaker: one failure would open it.
            breaker: BreakerConfig {
                failure_threshold: 1,
                open_ticks: 10,
                half_open_probes: 1,
            },
            ..ServeConfig::default()
        },
    );
    let session = server.open_session("t", CENSUS_VIEW).expect("session");

    let token = CancelToken::unbounded();
    token.cancel();
    let err = server
        .query_with_token(session, q_mean(), token)
        .expect_err("a cancelled token never serves");
    assert!(matches!(err, ServeError::Cancelled), "{err}");
    assert_eq!(server.metrics().cancelled, 1);
    assert_eq!(
        server.breaker_state(CENSUS_VIEW),
        BreakerState::Closed,
        "client cancellations say nothing about view health"
    );

    // The view itself is untouched: the next query serves normally.
    server.query(session, q_mean()).expect("view unharmed");
}

/// The paper's metadata rule lives in the one miss path, so a pinned
/// snapshot and a served query refuse a numeric summary of a coded
/// attribute exactly as `StatDbms::compute` does — a client mistake:
/// typed, neutral to the breaker, never admitted to the front cache.
#[test]
fn metadata_rule_applies_to_snapshots_and_served_queries() {
    use sdbms::core::{AccuracyPolicy, CoreError, SummaryValue};
    let not_summarizable = |e: &CoreError| matches!(e, CoreError::NotSummarizable { attribute } if attribute == "AGE_GROUP");
    let mut dbms = CensusFixture::new().build().expect("fixture");
    let snap = dbms.snapshot(CENSUS_VIEW).expect("snapshot");
    for f in [StatFunction::Count, StatFunction::Median] {
        let engine = dbms
            .compute(CENSUS_VIEW, "AGE_GROUP", &f, AccuracyPolicy::Exact)
            .expect_err("engine refuses");
        assert!(not_summarizable(&engine), "{f}: {engine}");
        let pinned = snap.compute("AGE_GROUP", &f).expect_err("snapshot refuses");
        assert!(not_summarizable(&pinned), "{f}: {pinned}");
    }
    // Value-based functions on coded attributes keep working.
    let (mode, _) = snap
        .compute("AGE_GROUP", &StatFunction::Mode)
        .expect("mode of codes");
    assert!(matches!(mode, SummaryValue::ModalValue(..)), "{mode}");
    drop(snap);

    let server = Server::start(
        dbms,
        ServeConfig {
            // A hair-trigger breaker: one failure would open it.
            breaker: BreakerConfig {
                failure_threshold: 1,
                open_ticks: 10,
                half_open_probes: 1,
            },
            ..ServeConfig::default()
        },
    );
    let session = server.open_session("t", CENSUS_VIEW).expect("session");
    for f in [StatFunction::Count, StatFunction::Median] {
        let err = server
            .query(session, Query::summary("AGE_GROUP", f.clone()))
            .expect_err("served query refuses");
        assert!(!err.is_breaker_failure(), "{f}: {err}");
        assert!(
            matches!(&err, ServeError::Core(e) if not_summarizable(e)),
            "{f}: {err}"
        );
    }
    assert_eq!(server.breaker_state(CENSUS_VIEW), BreakerState::Closed);
    assert_eq!(server.cache_stats().insertions, 0, "errors are not cached");
    let unique = server
        .query(
            session,
            Query::summary("AGE_GROUP", StatFunction::UniqueCount),
        )
        .expect("unique count of codes");
    assert_eq!(unique.served, Served::Computed);
    server.query(session, q_mean()).expect("view unharmed");
}

#[test]
fn breaker_opens_on_consecutive_engine_failures_fast_fails_then_recovers() {
    let server = Server::start(
        CensusFixture::new().build().expect("fixture"),
        ServeConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_ticks: 3,
                half_open_probes: 1,
            },
            ..ServeConfig::default().uncached()
        },
    );
    let session = server.open_session("t", CENSUS_VIEW).expect("session");
    server.query(session, q_mean()).expect("healthy baseline");
    assert_eq!(server.breaker_state(CENSUS_VIEW), BreakerState::Closed);

    // Break the disk: every read fails (bounded retries included).
    cold_pool(&server);
    server.with_dbms_mut(|dbms| {
        dbms.env().injector.set_plan(FaultPlan {
            seed: 11,
            disk: DeviceFaults {
                transient_read: 1.0,
                ..DeviceFaults::default()
            },
            ..FaultPlan::none()
        });
    });
    for i in 0..2 {
        let err = server.query(session, q_mean()).expect_err("dead disk");
        assert!(
            matches!(err, ServeError::Core(_)),
            "engine failure {i}: {err}"
        );
    }
    assert!(matches!(
        server.breaker_state(CENSUS_VIEW),
        BreakerState::Open
    ));

    // Open ⇒ fast-fail with a retry hint, without touching the engine.
    let err = server.query(session, q_mean()).expect_err("breaker open");
    match &err {
        ServeError::BreakerOpen {
            view,
            retry_after_ms,
        } => {
            assert_eq!(view, CENSUS_VIEW);
            assert!(*retry_after_ms >= 1);
        }
        other => panic!("expected BreakerOpen, got {other}"),
    }
    assert!(err.retry_after_ms().is_some());
    assert!(server.metrics().breaker_fast_fails >= 1);

    // Heal the disk; the open window (3 ticks) elapses as requests
    // arrive, then one successful half-open probe closes the breaker.
    server.with_dbms_mut(|dbms| dbms.env().injector.set_plan(FaultPlan::none()));
    let mut probed = None;
    for _ in 0..8 {
        match server.query(session, q_mean()) {
            Ok(resp) => {
                probed = Some(resp);
                break;
            }
            Err(ServeError::BreakerOpen { .. }) => {}
            Err(other) => panic!("healed disk may only fast-fail, got {other}"),
        }
    }
    let resp = probed.expect("the open window is 3 ticks; 8 requests must probe");
    assert_eq!(resp.canonical_bytes(), twin_answer(&q_mean()));
    assert_eq!(server.breaker_state(CENSUS_VIEW), BreakerState::Closed);
    let m = server.metrics();
    assert_eq!(m.breaker.opened, 1);
    assert_eq!(m.breaker.closed, 1);
    assert!(m.breaker.probes >= 1);
    server.query(session, q_mean()).expect("closed again");
}

#[test]
fn brownout_tier1_sheds_cold_reads_but_admits_priority_cached_and_writes() {
    let server = Server::start(
        CensusFixture::new().build().expect("fixture"),
        ServeConfig {
            // Watermark 0: the controller is in tier 1 from the first
            // request — deterministic shedding without real load.
            brownout: BrownoutConfig {
                tier1_inflight: 0,
                tier2_inflight: usize::MAX,
                hysteresis: 0,
            },
            priority_tenants: vec!["vip".to_string()],
            ..ServeConfig::default()
        },
    );
    let vip = server.open_session("vip", CENSUS_VIEW).expect("vip");
    let norm = server.open_session("norm", CENSUS_VIEW).expect("norm");

    // Priority tenants are never shed; this also warms the cache.
    let warmed = server.query(vip, q_mean()).expect("priority admitted");
    assert_eq!(warmed.served, Served::Computed);
    assert_eq!(server.brownout_tier(), BrownoutTier::SheddingCold);

    // A cold read from a normal tenant is shed with a typed hint.
    let cold = Query::summary("AGE", StatFunction::Max);
    let err = server.query(norm, cold).expect_err("cold read shed");
    match &err {
        ServeError::Brownout {
            tier,
            retry_after_ms,
        } => {
            assert_eq!(*tier, 1);
            assert!(*retry_after_ms >= 1);
        }
        other => panic!("expected Brownout, got {other}"),
    }

    // The warmed query is a likely cache hit: admitted and served from
    // the front cache even for the normal tenant.
    let hit = server.query(norm, q_mean()).expect("cached read admitted");
    assert_eq!(hit.served, Served::FrontCache);

    // Tier 1 still lands writes (they carry analyst state).
    let mut state = 42u64;
    let update = sdbms_testkit::seeded_income_update(&mut state);
    server
        .commit(norm, vec![update.batch_op()])
        .expect("tier-1 commit admitted");

    let m = server.metrics();
    assert_eq!(m.brownout.shed_cold, 1);
    assert_eq!(m.brownout.shed_tenant, 0);
    assert!(m.brownout.entered >= 1);
}

#[test]
fn brownout_tier2_sheds_non_priority_tenants_except_cache_hits() {
    let server = Server::start(
        CensusFixture::new().build().expect("fixture"),
        ServeConfig {
            brownout: BrownoutConfig {
                tier1_inflight: 0,
                tier2_inflight: 0,
                hysteresis: 0,
            },
            priority_tenants: vec!["vip".to_string()],
            ..ServeConfig::default()
        },
    );
    let vip = server.open_session("vip", CENSUS_VIEW).expect("vip");
    let norm = server.open_session("norm", CENSUS_VIEW).expect("norm");

    server
        .query(vip, q_mean())
        .expect("priority warms the cache");
    assert_eq!(server.brownout_tier(), BrownoutTier::SheddingTenants);

    // Tier 2 sheds the normal tenant's cold reads AND writes.
    let cold = Query::summary("AGE", StatFunction::Min);
    let err = server.query(norm, cold).expect_err("cold read shed");
    assert!(matches!(err, ServeError::Brownout { tier: 2, .. }), "{err}");
    let mut state = 7u64;
    let update = sdbms_testkit::seeded_income_update(&mut state);
    let err = server
        .commit(norm, vec![update.batch_op()])
        .expect_err("tier-2 commit shed");
    assert!(matches!(err, ServeError::Brownout { tier: 2, .. }), "{err}");

    // But a likely front-cache hit is always admitted: serving it
    // costs no engine work at all.
    let hit = server.query(norm, q_mean()).expect("cache hit admitted");
    assert_eq!(hit.served, Served::FrontCache);
    // And priority tenants still get engine work done.
    server
        .query(vip, Query::summary("AGE", StatFunction::Mean))
        .expect("priority cold read admitted");

    assert_eq!(server.metrics().brownout.shed_tenant, 2);
}

#[test]
fn quota_rejections_carry_a_refill_hint() {
    let server = Server::start(
        CensusFixture::new().build().expect("fixture"),
        ServeConfig {
            quota: QuotaConfig {
                capacity_milli: 100,
                refill_per_tick_milli: 1,
                min_charge_milli: 100,
            },
            // Uncached: front-cache hits are served before admission
            // (they cost no engine work), which would otherwise let
            // this repeated query dodge the quota forever.
            ..ServeConfig::default().uncached()
        },
    );
    let session = server.open_session("t", CENSUS_VIEW).expect("session");
    // The first query drains the whole bucket (min charge == capacity).
    server
        .query(session, q_mean())
        .expect("first query admitted");
    // Admission refills *before* it checks, so the per-tick trickle
    // resurrects the exactly-empty bucket once: the second query is
    // admitted at balance 1‰ and drives the balance deeply negative.
    server
        .query(session, q_mean())
        .expect("one refill tick re-admits an exactly-empty bucket");
    let err = server
        .query(session, q_mean())
        .expect_err("the bucket is now 99\u{2030} in debt");
    match &err {
        ServeError::QuotaExceeded {
            tenant,
            retry_after_ms,
            ..
        } => {
            assert_eq!(tenant, "t");
            assert!(*retry_after_ms >= 1, "a refill rate implies a finite wait");
        }
        other => panic!("expected QuotaExceeded, got {other}"),
    }
    assert!(err.retry_after_ms().is_some());
}

#[test]
fn cancelled_commit_aborts_cleanly_and_the_view_stays_writable() {
    let server = Server::start(
        CensusFixture::new().build().expect("fixture"),
        ServeConfig::default(),
    );
    let session = server.open_session("t", CENSUS_VIEW).expect("session");
    let before = server.with_dbms(|dbms| {
        dbms.snapshot(CENSUS_VIEW)
            .expect("snapshot")
            .column("INCOME")
            .expect("column")
    });

    // A zero-op budget trips before the batch does any work.
    let mut state = 99u64;
    let update = sdbms_testkit::seeded_income_update(&mut state);
    let err = server
        .commit_with_token(
            session,
            vec![update.batch_op()],
            CancelToken::with_op_budget(0),
        )
        .expect_err("zero budget cannot commit");
    assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");
    let after = server.with_dbms(|dbms| {
        dbms.snapshot(CENSUS_VIEW)
            .expect("snapshot")
            .column("INCOME")
            .expect("column")
    });
    assert_eq!(after, before, "a cancelled commit leaves pre-batch state");

    // No wedged lock, no stranded intent: the same ops commit fine.
    let resp = server
        .commit(session, vec![update.batch_op()])
        .expect("view stays writable after a cancelled commit");
    assert!(resp.version > 0);
    assert_eq!(server.metrics().commits, 1);
}

/// The acknowledgement is the install: under every op budget from
/// nothing to more than the whole request charges, the reply is `Ok`
/// exactly when the version moved and the commit log grew. Nothing
/// past the install charges the request's budget — the epilogue's
/// cache maintenance runs unbounded — so no trip can land after it,
/// on the commit or on the cache.
#[test]
fn a_commit_under_any_op_budget_is_acknowledged_iff_it_installed() {
    let fresh = || {
        let server = Server::start(
            CensusFixture::new().rows(60).build().expect("fixture"),
            ServeConfig::default(),
        );
        let session = server.open_session("t", CENSUS_VIEW).expect("session");
        // A cold pool: the shadow clone reads the device, so there is
        // a budget checkpoint at every page of the commit.
        cold_pool(&server);
        (server, session)
    };
    let mut state = 23u64;
    let ops = vec![sdbms_testkit::seeded_income_update(&mut state).batch_op()];

    const AMPLE: u64 = 1 << 40;
    let (server, session) = fresh();
    let token = CancelToken::with_op_budget(AMPLE);
    server
        .commit_with_token(session, ops.clone(), token.clone())
        .expect("ample budget");
    let total = AMPLE - token.ops_remaining().expect("op-budgeted token");
    assert!(total > 0, "a commit charges its budget");

    let mut acknowledged = 0;
    for budget in 0..=total + 1 {
        let (server, session) = fresh();
        let outcome =
            server.commit_with_token(session, ops.clone(), CancelToken::with_op_budget(budget));
        let version = server.with_dbms(|dbms| dbms.view_version(CENSUS_VIEW).expect("version"));
        let logged = server.commit_log().len();
        match outcome {
            Ok(reply) => {
                assert_eq!(
                    (reply.version, version, logged),
                    (1, 1, 1),
                    "budget {budget}"
                );
                // However little budget was left at the install, the
                // warm entry was maintained, not lost to a trip.
                let maintained = server.with_dbms(|dbms| {
                    let summary = &dbms.view(CENSUS_VIEW).expect("view").summary;
                    summary.lookup_fresh("INCOME", &StatFunction::Mean)
                });
                assert!(maintained.expect("lookup").is_some(), "budget {budget}");
                acknowledged += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e, ServeError::DeadlineExceeded),
                    "budget {budget}: {e}"
                );
                assert_eq!(
                    (version, logged),
                    (0, 0),
                    "budget {budget}: tripped after install"
                );
            }
        }
    }
    assert!(
        acknowledged >= 2,
        "budgets {total} and {} both suffice",
        total + 1
    );
    println!("commit budget sweep: {total} ops charged, {acknowledged} budgets acknowledged");
}

#[test]
fn slow_device_faults_eat_deadlines_without_marking_the_view_unhealthy() {
    let fixture = CensusFixture::new().rows(WIDE_ROWS);
    let want = twin_answer_for(&fixture, &q_mean());
    let server = Server::start(
        fixture.build().expect("fixture"),
        ServeConfig {
            deadline_ops: Some(30),
            ..ServeConfig::default().uncached()
        },
    );
    let session = server.open_session("t", CENSUS_VIEW).expect("session");
    server.query(session, q_mean()).expect("healthy baseline");

    // Every disk read now succeeds *slowly*, charging 50 simulated
    // time units against the ambient budget. Budgets are
    // check-then-consume — the first slow read is admitted and
    // overshoots to −21 — so the five-read cold scan trips on its
    // second read: slow-but-correct I/O that eats the 30-op deadline
    // without ever producing a wrong byte.
    cold_pool(&server);
    server.with_dbms_mut(|dbms| {
        dbms.env().injector.set_plan(FaultPlan {
            seed: 5,
            disk: DeviceFaults {
                slow_read: 1.0,
                slow_read_units: 50,
                ..DeviceFaults::default()
            },
            ..FaultPlan::none()
        });
    });
    let err = server.query(session, q_mean()).expect_err("slow disk");
    assert!(matches!(err, ServeError::DeadlineExceeded), "{err}");
    assert!(server.metrics().deadline_trips >= 1);
    let delayed = server.with_dbms(|dbms| dbms.env().injector.stats().delayed);
    assert!(delayed >= 1, "the slow fault actually fired");

    // Slowness is not damage: health is untouched, and on a healed
    // disk the same query serves the exact fault-free bytes.
    server.with_dbms_mut(|dbms| {
        assert_eq!(
            dbms.health(CENSUS_VIEW).expect("health"),
            sdbms::core::ViewHealth::Healthy
        );
        dbms.env().injector.set_plan(FaultPlan::none());
    });
    let resp = server.query(session, q_mean()).expect("healed");
    assert_eq!(resp.canonical_bytes(), want);
}
