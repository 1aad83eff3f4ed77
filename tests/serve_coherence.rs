//! Cache-coherence properties of the serving layer's front cache.
//!
//! Three guarantees under arbitrary interleavings of commits, repairs,
//! and queries:
//!
//! 1. **Never stale**: a read after a commit is byte-identical to a
//!    cold read of the same state on a twin DBMS that has no front
//!    cache at all — the `(view, version, query)` key makes superseded
//!    entries unreachable by construction.
//! 2. **Repair purges**: a repair can mend pages without moving the
//!    version, so the server drops the view's entries outright;
//!    post-repair reads equal fresh recomputes.
//! 3. **Fallback never admitted**: degraded-view answers (computed
//!    from the raw archive) are served but never enter the front
//!    cache, mirroring the Summary DB's own rule.

use proptest::prelude::*;

use sdbms::core::{StatDbms, StatFunction, ViewHealth};
use sdbms::serve::{Payload, Query, QuotaConfig, ServeConfig, Served, Server};
use sdbms_testkit::{
    checked_functions, seeded_income_update, CensusFixture, CENSUS_ATTRS, CENSUS_VIEW,
};

fn serve_fixture() -> Server {
    Server::start(
        CensusFixture::new().build().expect("fixture"),
        ServeConfig {
            workers: 2,
            queue_capacity: 1024,
            quota: QuotaConfig::unlimited(),
            ..ServeConfig::default()
        },
    )
}

/// The query universe the coherence ops index into.
fn queries() -> Vec<Query> {
    let mut qs = Vec::new();
    for attr in CENSUS_ATTRS {
        for f in checked_functions() {
            qs.push(Query::summary(attr, f));
        }
    }
    qs
}

/// A cold, cache-free answer from the twin.
fn cold_answer(twin: &StatDbms, query: &Query) -> Vec<u8> {
    let snap = twin.snapshot(CENSUS_VIEW).expect("twin snapshot");
    let payload = match query {
        Query::Summary {
            attribute,
            function,
        } => {
            let col = snap.column(attribute).expect("twin column");
            Payload::Summary(function.compute(&col).expect("twin compute"))
        }
        Query::Column { attribute } => {
            Payload::Column(snap.column(attribute).expect("twin column"))
        }
        Query::Row { index } => Payload::Row(snap.row(*index).expect("twin row")),
    };
    format!("{payload:?}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Ops are `(kind, selector, seed)` tuples: kind % 4 ∈
    /// {0,1: query, 2: commit, 3: repair}. After *every* op, each
    /// query in the universe served through the (caching) server must
    /// byte-equal the twin's cold read — i.e. interleaving commits and
    /// repairs with cached reads can never surface a stale entry.
    #[test]
    fn interleaved_commits_and_repairs_never_serve_stale(
        ops in prop::collection::vec((0u8..4, 0u16..1000, 0i64..i64::MAX), 1..24)
    ) {
        let server = serve_fixture();
        let mut twin = CensusFixture::new().build().expect("twin");
        let session = server.open_session("prop", CENSUS_VIEW).expect("session");
        let universe = queries();
        for (kind, selector, seed) in ops {
            match kind % 4 {
                0 | 1 => {
                    let q = &universe[selector as usize % universe.len()];
                    let resp = server.query(session, q.clone()).expect("query");
                    prop_assert_eq!(resp.canonical_bytes(), cold_answer(&twin, q));
                }
                2 => {
                    let mut state = seed as u64;
                    let update = seeded_income_update(&mut state);
                    let resp = server
                        .commit(session, vec![update.batch_op()])
                        .expect("commit");
                    prop_assert_eq!(resp.served, Served::Write);
                    let batch = twin.begin_batch(CENSUS_VIEW).expect("twin batch");
                    twin.batch_stage(batch, update.batch_op()).expect("twin stage");
                    twin.commit_batch(batch).expect("twin commit");
                }
                _ => {
                    // Repair of a healthy view is a no-op for the data
                    // but still purges the view's cache entries.
                    server.repair(session).expect("repair");
                }
            }
            // Post-op sweep: every universe query, served through the
            // cache, equals the twin's cold read right now.
            for q in &universe {
                let resp = server.query(session, q.clone()).expect("sweep query");
                prop_assert_eq!(
                    resp.canonical_bytes(),
                    cold_answer(&twin, q),
                    "stale answer for {:?} (served {:?}, version {})",
                    q, resp.served, resp.version
                );
            }
        }
        // One more sweep: the previous sweep populated the cache and
        // nothing invalidated since, so every answer now must be a
        // front-cache hit — the run exercised the cache, not bypassed
        // it.
        for q in &universe {
            let resp = server.query(session, q.clone()).expect("final sweep");
            prop_assert_eq!(resp.served, Served::FrontCache);
            prop_assert_eq!(resp.canonical_bytes(), cold_answer(&twin, q));
        }
        drop(server.shutdown());
    }
}

#[test]
fn post_commit_read_equals_cold_read() {
    let server = serve_fixture();
    let session = server.open_session("t", CENSUS_VIEW).expect("session");
    let q = Query::summary("INCOME", StatFunction::Mean);

    // Warm the front cache, then prove the second read hits it.
    let first = server.query(session, q.clone()).expect("warm");
    assert_eq!(first.served, Served::Computed);
    let hit = server.query(session, q.clone()).expect("hit");
    assert_eq!(hit.served, Served::FrontCache);
    assert_eq!(hit.canonical_bytes(), first.canonical_bytes());
    assert_eq!(hit.io, sdbms::storage::IoSnapshot::default());
    assert_eq!(hit.cost_milli, 0, "a front-cache hit is billed zero");

    // Commit, then read again: the post-commit answer must be a fresh
    // compute (new version ⇒ new key) and equal a cold twin that
    // performed the same edit.
    let mut state = 0xBEEF;
    let update = seeded_income_update(&mut state);
    let committed = server
        .commit(session, vec![update.batch_op()])
        .expect("commit");
    assert!(committed.version > first.version);
    let after = server.query(session, q.clone()).expect("post-commit");
    assert_eq!(
        after.served,
        Served::Computed,
        "old entry must be unreachable"
    );
    assert_ne!(
        after.canonical_bytes(),
        first.canonical_bytes(),
        "the edit changes mean income"
    );
    let mut twin = CensusFixture::new().build().expect("twin");
    update.apply(&mut twin, CENSUS_VIEW).expect("twin edit");
    assert_eq!(after.canonical_bytes(), cold_answer(&twin, &q));
}

#[test]
fn fallback_results_are_never_admitted_to_the_front_cache() {
    let server = serve_fixture();
    let session = server.open_session("t", CENSUS_VIEW).expect("session");
    let q = Query::summary("INCOME", StatFunction::Mean);
    let healthy_bytes = server
        .query(session, q.clone())
        .expect("healthy")
        .canonical_bytes();

    // Corrupt a data page on disk and scrub until the damage is found.
    server.with_dbms_mut(|dbms| {
        dbms.env().pool.flush_all().expect("flush");
        let pages = dbms.view(CENSUS_VIEW).expect("view").store.data_page_ids();
        dbms.env().disk.corrupt_page(pages[0], 3).expect("corrupt");
        for _ in 0..64 {
            dbms.scrub(10_000).expect("scrub");
            if dbms.health(CENSUS_VIEW).expect("health") != ViewHealth::Healthy {
                break;
            }
        }
        assert_ne!(
            dbms.health(CENSUS_VIEW).expect("health"),
            ViewHealth::Healthy,
            "scrub must detect the corrupted page"
        );
    });

    // Degraded reads answer from the raw archive and are never cached.
    let insertions_before = server.cache_stats().insertions;
    let degraded = server.query(session, q.clone()).expect("degraded read");
    assert_eq!(degraded.served, Served::Fallback);
    assert_eq!(
        degraded.canonical_bytes(),
        healthy_bytes,
        "the archive holds the pristine data, so the value is unchanged"
    );
    let again = server.query(session, q.clone()).expect("degraded again");
    assert_eq!(
        again.served,
        Served::Fallback,
        "a repeated degraded read must recompute, not hit the cache"
    );
    let stats = server.cache_stats();
    assert_eq!(stats.insertions, insertions_before, "nothing was admitted");
    assert!(stats.fallback_rejections >= 2);

    // Repair through the server: data restored, view cacheable again.
    let repaired = server.repair(session).expect("repair");
    let Payload::Repaired {
        store_regenerated, ..
    } = repaired.payload
    else {
        panic!("repair response with a non-repair payload");
    };
    assert!(store_regenerated, "page damage forces archive regeneration");
    let fresh = server.query(session, q.clone()).expect("post-repair");
    assert_eq!(fresh.served, Served::Computed);
    assert_eq!(fresh.canonical_bytes(), healthy_bytes);
    let hit = server.query(session, q).expect("post-repair hit");
    assert_eq!(
        hit.served,
        Served::FrontCache,
        "cacheable again after repair"
    );
    drop(server.shutdown());
}

#[test]
fn repair_purges_every_cached_entry_of_the_view() {
    let server = serve_fixture();
    let session = server.open_session("t", CENSUS_VIEW).expect("session");
    for q in queries() {
        server.query(session, q).expect("warm");
    }
    let warmed = server.cache_stats().insertions;
    assert!(warmed >= 10);
    server.repair(session).expect("repair healthy view");
    assert_eq!(
        server.cache_stats().purged,
        warmed,
        "repair purges the view's entries even when it repaired nothing"
    );
    // Every query now recomputes (and the answers are unchanged).
    for q in queries() {
        let resp = server.query(session, q).expect("post-repair");
        assert_eq!(resp.served, Served::Computed);
    }
}
