//! Serial-equivalence differential harness for the serving layer.
//!
//! The property: every response produced by the *concurrent* server —
//! front-cached or freshly computed, whatever the thread interleaving
//! — is **byte-identical** to what a serial, uncached replay produces
//! at the matching store version. The server's commit log (appended in
//! version order, under the engine lock) is the replay script; each
//! query response carries the version it reflects, and the traffic
//! generator's deterministic schedule tells the oracle which logical
//! query produced it.

use std::collections::BTreeMap;

use sdbms::core::StatDbms;
use sdbms::serve::{
    census_query_universe, request_schedule, run_traffic, Outcome, Payload, Query, QuotaConfig,
    Request, ServeConfig, Served, Server, TrafficConfig,
};
use sdbms_testkit::{CensusFixture, CENSUS_VIEW};

fn workers_from_env(default: usize) -> usize {
    std::env::var(sdbms::exec::WORKERS_ENV)
        .ok()
        .and_then(|v| sdbms::exec::parse_workers(&v))
        .unwrap_or(default)
}

/// Compute `query` serially and uncached against the current state of
/// `dbms`, rendering the payload exactly as the server does.
fn serial_answer(dbms: &StatDbms, query: &Query) -> Vec<u8> {
    let snap = dbms.snapshot(CENSUS_VIEW).expect("oracle snapshot");
    let payload = match query {
        Query::Summary {
            attribute,
            function,
        } => {
            let col = snap.column(attribute).expect("oracle column");
            Payload::Summary(function.compute(&col).expect("oracle compute"))
        }
        Query::Column { attribute } => {
            Payload::Column(snap.column(attribute).expect("oracle column"))
        }
        Query::Row { index } => Payload::Row(snap.row(*index).expect("oracle row")),
    };
    format!("{payload:?}").into_bytes()
}

#[test]
fn concurrent_responses_are_byte_identical_to_serial_uncached_replay() {
    let cfg = TrafficConfig::new(CENSUS_VIEW)
        .analysts(6)
        .requests_per_analyst(60)
        .update_every(7)
        .seed(0xD1FF);
    let server = Server::start(
        CensusFixture::new().build().expect("fixture"),
        ServeConfig {
            workers: workers_from_env(4),
            queue_capacity: 4096, // generous: this harness checks values, not back-pressure
            quota: QuotaConfig::unlimited(),
            ..ServeConfig::default()
        },
    );
    let base_version = server.with_dbms(|d| d.view_version(CENSUS_VIEW).expect("version"));
    let report = run_traffic(&server, &cfg);
    assert_eq!(
        report.completed as usize,
        cfg.analysts * cfg.requests_per_analyst,
        "unlimited quota and a deep queue: nothing may be rejected"
    );
    let commit_log = server.commit_log();
    drop(server.shutdown());

    // The log must be in strict version order, one version per commit,
    // starting just above the fixture's base version.
    for (i, rec) in commit_log.iter().enumerate() {
        assert_eq!(
            rec.version_after,
            base_version + 1 + i as u64,
            "commit log out of version order at entry {i}"
        );
    }

    // Pair every successful query response with the logical query that
    // produced it (the schedule is deterministic), bucketed by the
    // store version the response reflects.
    let universe = census_query_universe();
    let mut by_version: BTreeMap<u64, Vec<(Query, Vec<u8>, Served)>> = BTreeMap::new();
    let mut writer_reports = Vec::new();
    for analyst in 0..cfg.analysts {
        let schedule = request_schedule(&cfg, &universe, analyst);
        let outcomes = &report.outcomes[analyst];
        assert_eq!(schedule.len(), outcomes.len());
        for (request, outcome) in schedule.iter().zip(outcomes) {
            let Outcome::Ok(resp, _) = outcome else {
                panic!("unexpected rejection: {outcome:?}");
            };
            match request {
                Request::Query(q) => {
                    assert!(
                        resp.version >= base_version,
                        "a response can never reflect a pre-fixture version"
                    );
                    by_version.entry(resp.version).or_default().push((
                        q.clone(),
                        resp.canonical_bytes(),
                        resp.served,
                    ));
                }
                Request::Commit(_) => writer_reports.push(resp.clone()),
            }
        }
    }

    // Each commit response must agree with the log record at its
    // version (same rows matched, same cells changed).
    assert_eq!(writer_reports.len(), commit_log.len());
    for resp in &writer_reports {
        let rec = commit_log
            .iter()
            .find(|r| r.version_after == resp.version)
            .expect("commit response without a log record");
        let Payload::Committed {
            rows_matched,
            cells_changed,
        } = resp.payload
        else {
            panic!("commit response with a non-commit payload");
        };
        assert_eq!(rows_matched, rec.rows_matched);
        assert_eq!(cells_changed, rec.cells_changed);
    }

    // Serial uncached replay: rebuild the identical fixture, apply the
    // commit log version by version, and at every version a response
    // reflected, recompute each recorded query from scratch.
    let mut oracle = CensusFixture::new().build().expect("twin fixture");
    let mut version = base_version;
    let mut checked = 0usize;
    let mut front_cache_checked = 0usize;
    let mut log_iter = commit_log.iter();
    loop {
        if let Some(responses) = by_version.get(&version) {
            for (query, bytes, served) in responses {
                let expect = serial_answer(&oracle, query);
                assert_eq!(
                    bytes, &expect,
                    "response for {query:?} at version {version} (served {served:?}) \
                     diverged from the serial uncached replay"
                );
                checked += 1;
                if *served == Served::FrontCache {
                    front_cache_checked += 1;
                }
            }
        }
        let Some(rec) = log_iter.next() else { break };
        let batch = oracle.begin_batch(CENSUS_VIEW).expect("oracle batch");
        for op in &rec.ops {
            oracle.batch_stage(batch, op.clone()).expect("oracle stage");
        }
        let report = oracle.commit_batch(batch).expect("oracle commit");
        assert_eq!(report.rows_matched, rec.rows_matched);
        assert_eq!(report.cells_changed, rec.cells_changed);
        version = oracle.view_version(CENSUS_VIEW).expect("oracle version");
        assert_eq!(version, rec.version_after, "replay version drifted");
    }
    // Every response version must have been replayed (none beyond the
    // last commit).
    let max_version = by_version.keys().next_back().copied().unwrap_or(0);
    assert!(
        max_version <= version,
        "a response reflected version {max_version} the replay never reached"
    );
    assert!(checked > 200, "the harness must actually compare responses");
    assert!(
        front_cache_checked > 0,
        "a Zipfian mix must produce front-cache hits to make the check meaningful"
    );
}

/// The same property with the front cache disabled: the equivalence
/// must come from snapshot isolation alone, not from caching accidents.
#[test]
fn uncached_server_is_also_serially_equivalent() {
    let cfg = TrafficConfig::new(CENSUS_VIEW)
        .analysts(3)
        .requests_per_analyst(30)
        .update_every(5)
        .seed(7);
    let server = Server::start(
        CensusFixture::new().build().expect("fixture"),
        ServeConfig {
            workers: workers_from_env(2),
            queue_capacity: 4096,
            quota: QuotaConfig::unlimited(),
            ..ServeConfig::default()
        }
        .uncached(),
    );
    let base_version = server.with_dbms(|d| d.view_version(CENSUS_VIEW).expect("version"));
    let report = run_traffic(&server, &cfg);
    assert_eq!(report.front_cache_hits, 0, "cache disabled");
    let commit_log = server.commit_log();
    drop(server.shutdown());

    let universe = census_query_universe();
    let mut oracle = CensusFixture::new().build().expect("twin");
    // Replay everything first, keeping each version's state answerable
    // by re-deriving on demand: simplest is to replay incrementally and
    // check versions in ascending order, as above.
    let mut by_version: BTreeMap<u64, Vec<(Query, Vec<u8>)>> = BTreeMap::new();
    for analyst in 0..cfg.analysts {
        let schedule = request_schedule(&cfg, &universe, analyst);
        for (request, outcome) in schedule.iter().zip(&report.outcomes[analyst]) {
            if let (Request::Query(q), Outcome::Ok(resp, _)) = (request, outcome) {
                by_version
                    .entry(resp.version)
                    .or_default()
                    .push((q.clone(), resp.canonical_bytes()));
            }
        }
    }
    let mut version = base_version;
    let mut log_iter = commit_log.iter();
    loop {
        if let Some(responses) = by_version.get(&version) {
            for (query, bytes) in responses {
                assert_eq!(bytes, &serial_answer(&oracle, query));
            }
        }
        let Some(rec) = log_iter.next() else { break };
        let batch = oracle.begin_batch(CENSUS_VIEW).expect("batch");
        for op in &rec.ops {
            oracle.batch_stage(batch, op.clone()).expect("stage");
        }
        oracle.commit_batch(batch).expect("commit");
        version = oracle.view_version(CENSUS_VIEW).expect("version");
    }
}
