//! The serving layer proper: a thread-pool request loop in front of
//! one [`StatDbms`].
//!
//! Architecture (no new runtime dependencies — a bounded channel and a
//! worker pool):
//!
//! ```text
//!   clients ──► Server::query/commit/repair
//!                 │  1. logical tick       (AtomicU64, one per request)
//!                 │  2. admission check    (token bucket, BEFORE queueing)
//!                 │  3. try_send           (bounded queue → Overloaded)
//!                 ▼
//!            [ sync_channel ] ──► worker threads
//!                                   ├─ reads:  pinned Snapshot + front cache
//!                                   ├─ writes: engine lock → batch commit
//!                                   └─ reply channel back to the caller
//! ```
//!
//! **Read work happens outside the engine lock.** The engine itself
//! ([`StatDbms`]) has single-writer interior caches, so it sits behind
//! a [`Mutex`] — but workers hold that lock only for metadata moments
//! (health/version checks, opening a snapshot) and for writes. Column
//! reads and statistics run against each session's `Arc<Snapshot>`,
//! which is `Send + Sync` and lock-free: a worker re-pins it (a cheap
//! locked version check) only when the view's version has moved. The
//! snapshot's own memo plus the front [`ResultCache`] keyed by
//! `(view, version, query)` mean a commit invalidates by
//! construction — the next read simply keys differently.
//!
//! **Back-pressure is typed and happens at the door.** Admission
//! control rejects before a queue slot is taken
//! ([`ServeError::QuotaExceeded`]); a full queue rejects instead of
//! blocking ([`ServeError::Overloaded`]). Accepted requests always get
//! exactly one reply.
//!
//! **Accounting is exact.** Each request's engine I/O runs inside its
//! own [`IoScope`]; the recorded counters are priced through the
//! shared [`CostModel`] in integer milli-units and debited from the
//! tenant's bucket, subject to the quota's per-request floor
//! ([`QuotaConfig::min_charge_milli`]) — buffer-pool hits are free in
//! the cost model, so without a floor a tenant hammering resident data
//! would never drain its bucket. Front-cache hits alone are billed
//! zero. The sum of per-response `io`/`cost_milli` equals the tenant
//! ledger to the unit — the quota tests assert this under an 8-thread
//! hammer. Failed requests are not billed (the client never saw a
//! result).
//!
//! **Every request carries a budget.** A [`CancelToken`] is minted at
//! the door (the configured default op-budget deadline, or a
//! caller-supplied token via [`Server::query_with_token`]) and made
//! ambient inside the worker with a [`BudgetScope`], so every device
//! operation the engine performs charges it. A trip surfaces as
//! [`ServeError::DeadlineExceeded`] / [`ServeError::Cancelled`] —
//! never a partial result, never a cache entry, and a tripped commit
//! aborts to its exact pre-batch state. Around the budget sit the
//! lifecycle guards: a per-view **circuit breaker** (consecutive
//! deadline trips or engine faults open it; compute requests then
//! fast-fail with a `retry_after_ms` hint while cache hits and
//! degraded fallbacks keep serving) and a **brownout controller**
//! (sustained in-flight pressure sheds cold uncached reads first,
//! then non-priority tenants, never likely cache hits). DESIGN.md §16
//! has the full state diagrams.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Mutex, Rank};
use sdbms_core::{
    AccuracyPolicy, BatchOp, ComputeSource, CoreError, Snapshot, StatDbms, StatFunction,
    SummaryValue, ViewHealth,
};
use sdbms_data::Value;
use sdbms_storage::{BudgetScope, CancelToken, CostModel, IoScope, IoSnapshot, IoStats};

use crate::admission::{AdmissionController, QuotaConfig, TenantUsage};
use crate::breaker::{BreakerAdmit, BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
use crate::brownout::{
    should_shed, BrownoutConfig, BrownoutController, BrownoutStats, BrownoutTier,
};
use crate::cache::{FrontCacheStats, QueryKey, ResultCache};
use crate::error::{Result, ServeError};

/// Identifies one open analyst session on a [`Server`].
pub type SessionId = u64;

/// Server sizing knobs. [`Default`] gives a small in-process server
/// suitable for tests; production-shaped experiments override.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded request-queue depth; a full queue rejects with
    /// [`ServeError::Overloaded`] rather than blocking the caller.
    pub queue_capacity: usize,
    /// Front-cache capacity in entries; `0` disables the cache.
    pub cache_capacity: usize,
    /// Front-cache TTL in logical ticks (one tick per submitted
    /// request, server-wide).
    pub cache_ttl: u64,
    /// Per-tenant admission quota.
    pub quota: QuotaConfig,
    /// Default per-request deadline as an **op budget** (deterministic
    /// device-operation units, see `sdbms_storage::budget`); `None`
    /// runs requests unbounded. Individual requests override via
    /// [`Server::query_with_token`].
    pub deadline_ops: Option<u64>,
    /// Tenants exempt from brownout shedding at every tier.
    pub priority_tenants: Vec<String>,
    /// Per-view circuit-breaker sizing (disabled by default).
    pub breaker: BreakerConfig,
    /// Brownout shed watermarks (disabled by default).
    pub brownout: BrownoutConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 1024,
            cache_ttl: 50_000,
            quota: QuotaConfig::default(),
            deadline_ops: None,
            priority_tenants: Vec::new(),
            breaker: BreakerConfig::default(),
            brownout: BrownoutConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The same configuration with the front cache disabled — the
    /// uncached baseline the serving tests compare against.
    #[must_use]
    pub fn uncached(mut self) -> Self {
        self.cache_capacity = 0;
        self
    }

    /// Set the default per-request deadline, in op-budget units.
    #[must_use]
    pub fn deadline_ops(mut self, ops: u64) -> Self {
        self.deadline_ops = Some(ops);
        self
    }

    /// Set the per-view circuit-breaker sizing.
    #[must_use]
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Set the brownout shed watermarks.
    #[must_use]
    pub fn brownout(mut self, brownout: BrownoutConfig) -> Self {
        self.brownout = brownout;
        self
    }

    /// Set the tenants brownout never sheds.
    #[must_use]
    pub fn priority_tenants(mut self, tenants: &[&str]) -> Self {
        self.priority_tenants = tenants.iter().map(|t| (*t).to_string()).collect();
        self
    }
}

/// A read request. Its canonical rendering is the query component of
/// the front-cache key, so two textually different constructions of
/// the same logical query share an entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `function(attribute)` through the snapshot (and front cache).
    Summary {
        /// Attribute name.
        attribute: String,
        /// Statistical function to apply.
        function: StatFunction,
    },
    /// One full column of the pinned version.
    Column {
        /// Attribute name.
        attribute: String,
    },
    /// One full row of the pinned version.
    Row {
        /// Row index.
        index: usize,
    },
}

impl Query {
    /// Convenience constructor for the common summary form.
    #[must_use]
    pub fn summary(attribute: &str, function: StatFunction) -> Self {
        Query::Summary {
            attribute: attribute.to_string(),
            function,
        }
    }

    /// Canonical cache-key rendering, e.g. `"mean(INCOME)"`.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            Query::Summary {
                attribute,
                function,
            } => format!("{function}({attribute})"),
            Query::Column { attribute } => format!("column({attribute})"),
            Query::Row { index } => format!("row({index})"),
        }
    }
}

/// The data a response carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A summary statistic.
    Summary(SummaryValue),
    /// A full column.
    Column(Vec<Value>),
    /// A full row.
    Row(Vec<Value>),
    /// A committed update batch.
    Committed {
        /// Rows matched across the batch's operations.
        rows_matched: usize,
        /// Cells actually changed.
        cells_changed: usize,
    },
    /// A completed repair.
    Repaired {
        /// True when the store was regenerated from the archive.
        store_regenerated: bool,
        /// True when the Summary DB was reset.
        summary_reset: bool,
    },
}

/// How a response was produced — the serving layer's provenance tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Straight from the front result cache: zero engine I/O.
    FrontCache,
    /// Computed against the session's pinned snapshot.
    Computed,
    /// Computed through the degraded path (raw archive); correct but
    /// never admitted to the front cache.
    Fallback,
    /// A write (commit or repair).
    Write,
}

/// One reply. `canonical_bytes` is what the differential harness
/// byte-compares against a serial uncached replay.
#[derive(Debug, Clone)]
pub struct Response {
    /// The result data.
    pub payload: Payload,
    /// Provenance: cache hit, fresh compute, degraded fallback, write.
    pub served: Served,
    /// View the request ran against.
    pub view: String,
    /// Store version the response reflects.
    pub version: u64,
    /// Always `0`: the Summary DB is no longer versioned apart from
    /// the store (`version` says everything). Kept because callers
    /// build `Response` literals.
    pub generation: u64,
    /// Engine I/O this request performed (zero for cache hits).
    pub io: IoSnapshot,
    /// The I/O priced through the cost model, in milli-units (raised
    /// to the quota's per-request floor for executed requests; zero
    /// for front-cache hits) — exactly what was debited from the
    /// tenant's bucket.
    pub cost_milli: u64,
    /// The logical tick assigned at submission.
    pub tick: u64,
}

impl Response {
    /// A canonical byte rendering of the payload, independent of how
    /// it was served. Two responses carrying the same logical result
    /// produce identical bytes — the equivalence the differential
    /// harness checks.
    #[must_use]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        format!("{:?}", self.payload).into_bytes()
    }
}

/// One committed batch, recorded in commit order. The log order equals
/// the store-version order because the record is appended while the
/// commit still holds the engine's write lock.
#[derive(Debug, Clone)]
pub struct CommitRecord {
    /// View committed to.
    pub view: String,
    /// The staged operations, in order.
    pub ops: Vec<BatchOp>,
    /// The view's store version after this commit.
    pub version_after: u64,
    /// Rows matched across the batch.
    pub rows_matched: usize,
    /// Cells changed across the batch.
    pub cells_changed: usize,
}

/// Aggregate server counters, via [`Server::metrics`]. Reading them
/// never touches the engine lock, so they stay observable while a
/// write or repair is in flight (epoch diagnostics, which do need the
/// engine, live in [`Server::epoch_status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Successful responses (all kinds).
    pub served: u64,
    /// Committed batches.
    pub commits: u64,
    /// Completed repairs.
    pub repairs: u64,
    /// Requests rejected because the queue was full.
    pub overload_rejections: u64,
    /// Requests rejected at admission (all tenants).
    pub quota_rejections: u64,
    /// Requests that tripped their deadline budget mid-execution.
    pub deadline_trips: u64,
    /// Requests cancelled by their caller mid-execution.
    pub cancelled: u64,
    /// Requests fast-failed by an open circuit breaker.
    pub breaker_fast_fails: u64,
    /// Circuit-breaker transition counters across all views.
    pub breaker: BreakerStats,
    /// Brownout shed and transition counters.
    pub brownout: BrownoutStats,
    /// Requests currently queued or executing.
    pub in_flight: u64,
    /// Currently open sessions.
    pub open_sessions: usize,
}

enum JobKind {
    Query(Query),
    Commit(Vec<BatchOp>),
    Repair,
}

struct Job {
    session: SessionId,
    tenant: String,
    view: String,
    tick: u64,
    kind: JobKind,
    /// The request's cooperative budget: carried from the door through
    /// the worker into every engine/storage operation the job runs.
    token: CancelToken,
    reply: SyncSender<Result<Response>>,
}

struct SessionState {
    tenant: String,
    view: String,
    /// The session's pinned snapshot; refreshed lazily when the view's
    /// version moves. `None` until the first read.
    snap: Option<Arc<Snapshot>>,
    /// Exact merge of this session's per-request I/O.
    io: IoSnapshot,
    served: u64,
}

#[derive(Default)]
struct MetricCounters {
    served: AtomicU64,
    commits: AtomicU64,
    repairs: AtomicU64,
    overloaded: AtomicU64,
    quota_rejected: AtomicU64,
    deadline_trips: AtomicU64,
    cancelled: AtomicU64,
    breaker_fast_fails: AtomicU64,
}

struct Inner {
    dbms: Mutex<StatDbms>,
    cache: Mutex<ResultCache>,
    admission: Mutex<AdmissionController>,
    sessions: Mutex<HashMap<SessionId, SessionState>>,
    commit_log: Mutex<Vec<CommitRecord>>,
    breaker: Mutex<CircuitBreaker>,
    brownout: Mutex<BrownoutController>,
    /// Logical clock: one tick per submitted request (including
    /// rejected ones — offered load drives quota refill).
    clock: AtomicU64,
    next_session: AtomicU64,
    /// Requests queued or executing right now — the brownout
    /// controller's pressure signal (the mpsc queue's depth is not
    /// observable directly).
    in_flight: AtomicU64,
    /// Exponential moving average of per-request service time in
    /// microseconds; feeds the advisory `retry_after_ms` hints. A
    /// hint, not a behavior input: responses are identical whatever
    /// this reads.
    ema_service_us: AtomicU64,
    cost_model: CostModel,
    /// Minimum debit for an engine-executed request (see
    /// [`QuotaConfig::min_charge_milli`]).
    min_charge_milli: u64,
    queue_capacity: usize,
    workers: usize,
    deadline_ops: Option<u64>,
    priority_tenants: Vec<String>,
    metrics: MetricCounters,
}

impl Inner {
    /// Advisory conversion of logical ticks (quota refill, breaker
    /// cool-down) to wall milliseconds. One tick advances roughly once
    /// per served request, so the EMA service time divided by the
    /// worker count approximates the tick interval.
    fn ticks_to_ms_hint(&self, ticks: u64) -> u64 {
        let ema_us = self.ema_service_us.load(Ordering::SeqCst).max(1);
        (ticks.saturating_mul(ema_us / self.workers as u64) / 1_000).max(1)
    }
}

/// The serving front end. Construct with [`Server::start`]; requests
/// are synchronous from the caller's perspective (submit, block on the
/// reply channel) while the worker pool overlaps their execution.
pub struct Server {
    inner: Arc<Inner>,
    /// `None` once shutdown began; dropping the last sender
    /// disconnects the channel and the workers drain and exit.
    tx: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Start a server owning `dbms`, spawning `config.workers` worker
    /// threads over a bounded queue of `config.queue_capacity`.
    #[must_use]
    pub fn start(dbms: StatDbms, config: ServeConfig) -> Self {
        let queue_capacity = config.queue_capacity.max(1);
        let inner = Arc::new(Inner {
            dbms: Mutex::new(Rank::Engine, dbms),
            cache: Mutex::new(
                Rank::ServeCache,
                ResultCache::new(config.cache_capacity, config.cache_ttl),
            ),
            admission: Mutex::new(Rank::ServeAdmission, AdmissionController::new(config.quota)),
            sessions: Mutex::new(Rank::ServeSessions, HashMap::new()),
            commit_log: Mutex::new(Rank::ServeCommitLog, Vec::new()),
            breaker: Mutex::new(Rank::ServeBreaker, CircuitBreaker::new(config.breaker)),
            brownout: Mutex::new(
                Rank::ServeBrownout,
                BrownoutController::new(config.brownout),
            ),
            clock: AtomicU64::new(0),
            next_session: AtomicU64::new(1),
            in_flight: AtomicU64::new(0),
            ema_service_us: AtomicU64::new(0),
            cost_model: CostModel::default(),
            min_charge_milli: config.quota.min_charge_milli,
            queue_capacity,
            workers: config.workers.max(1),
            deadline_ops: config.deadline_ops,
            priority_tenants: config.priority_tenants.clone(),
            metrics: MetricCounters::default(),
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_capacity);
        let rx = Arc::new(Mutex::new(Rank::ServeQueueRx, rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&inner, &rx))
            })
            .collect();
        Server {
            inner,
            tx: Mutex::new(Rank::ServeQueueTx, Some(tx)),
            workers: Mutex::new(Rank::ServeWorkers, workers),
        }
    }

    // ---- sessions --------------------------------------------------------

    /// Open a session for `tenant` against `view`. Fails if the view
    /// does not exist. The session pins no snapshot until its first
    /// read.
    pub fn open_session(&self, tenant: &str, view: &str) -> Result<SessionId> {
        // Validate the view up front so a typo fails at open, not on
        // the first query.
        self.inner.dbms.lock().view_version(view)?;
        let id = self.inner.next_session.fetch_add(1, Ordering::SeqCst);
        self.inner.sessions.lock().insert(
            id,
            SessionState {
                tenant: tenant.to_string(),
                view: view.to_string(),
                snap: None,
                io: IoSnapshot::default(),
                served: 0,
            },
        );
        Ok(id)
    }

    /// Close a session, dropping its snapshot pin (releasing its epoch
    /// for reclamation).
    pub fn close_session(&self, session: SessionId) -> Result<()> {
        self.inner
            .sessions
            .lock()
            .remove(&session)
            .map(|_| ())
            .ok_or(ServeError::NoSuchSession(session))
    }

    /// The exact merge of a session's per-request I/O counters.
    pub fn session_io(&self, session: SessionId) -> Result<IoSnapshot> {
        self.inner
            .sessions
            .lock()
            .get(&session)
            .map(|s| s.io)
            .ok_or(ServeError::NoSuchSession(session))
    }

    // ---- requests --------------------------------------------------------

    /// Run a read query on the session's view, under the server's
    /// default deadline (if one is configured).
    pub fn query(&self, session: SessionId, query: Query) -> Result<Response> {
        self.request(session, JobKind::Query(query), self.default_token())
    }

    /// Run a read query under a caller-supplied budget. The caller
    /// keeps a clone of `token` and may `cancel()` it at any point —
    /// the worker observes the trip at the next morsel / device
    /// operation and returns [`ServeError::Cancelled`] instead of a
    /// partial result.
    pub fn query_with_token(
        &self,
        session: SessionId,
        query: Query,
        token: CancelToken,
    ) -> Result<Response> {
        self.request(session, JobKind::Query(query), token)
    }

    /// Commit an update batch on the session's view: the staged ops
    /// are applied transactionally (all or nothing) and the commit is
    /// appended to the server's commit log in version order.
    pub fn commit(&self, session: SessionId, ops: Vec<BatchOp>) -> Result<Response> {
        self.request(session, JobKind::Commit(ops), self.default_token())
    }

    /// Commit under a caller-supplied budget. A trip at any point
    /// before the install swap aborts the batch cleanly — the view
    /// keeps its exact pre-batch state and the lock is released; a
    /// cancelled commit is indistinguishable from an aborted one.
    pub fn commit_with_token(
        &self,
        session: SessionId,
        ops: Vec<BatchOp>,
        token: CancelToken,
    ) -> Result<Response> {
        self.request(session, JobKind::Commit(ops), token)
    }

    /// Repair the session's view and purge its front-cache entries
    /// (see [`crate::cache`]). Repairs always run unbounded:
    /// half-finished recovery work is the one thing a deadline must not
    /// create.
    pub fn repair(&self, session: SessionId) -> Result<Response> {
        self.request(session, JobKind::Repair, CancelToken::unbounded())
    }

    fn default_token(&self) -> CancelToken {
        match self.inner.deadline_ops {
            Some(ops) => CancelToken::with_op_budget(ops),
            None => CancelToken::unbounded(),
        }
    }

    fn request(&self, session: SessionId, kind: JobKind, token: CancelToken) -> Result<Response> {
        let tick = self.inner.clock.fetch_add(1, Ordering::SeqCst);
        let (tenant, view) = {
            let sessions = self.inner.sessions.lock();
            let st = sessions
                .get(&session)
                .ok_or(ServeError::NoSuchSession(session))?;
            (st.tenant.clone(), st.view.clone())
        };
        // Admission happens BEFORE a queue slot is taken: an
        // out-of-quota tenant is turned away at the door and cannot
        // crowd the queue other tenants share.
        if let Err(mut e) = self.inner.admission.lock().try_admit(&tenant, tick) {
            self.inner
                .metrics
                .quota_rejected
                .fetch_add(1, Ordering::SeqCst);
            if let ServeError::QuotaExceeded { retry_after_ms, .. } = &mut e {
                // try_admit filled the field with refill *ticks*;
                // rescale to wall milliseconds with the service EMA.
                *retry_after_ms = self.inner.ticks_to_ms_hint(*retry_after_ms);
            }
            return Err(e);
        }
        // Brownout: under sustained pressure, shed the least valuable
        // work at the door. Likely cache hits always pass (they cost
        // no engine work); priority tenants always pass.
        let in_flight = self.inner.in_flight.load(Ordering::SeqCst);
        let tier = self.inner.brownout.lock().observe(in_flight as usize);
        if tier != BrownoutTier::Normal {
            let priority = self.inner.priority_tenants.contains(&tenant);
            let (is_query, likely_cached) = match &kind {
                JobKind::Query(q) => (
                    true,
                    self.inner
                        .cache
                        .lock()
                        .probe_fresh(&view, &q.canonical(), tick),
                ),
                _ => (false, false),
            };
            if should_shed(tier, priority, is_query, likely_cached) {
                self.inner.brownout.lock().count_shed(tier);
                return Err(ServeError::Brownout {
                    tier: match tier {
                        BrownoutTier::Normal => 0,
                        BrownoutTier::SheddingCold => 1,
                        BrownoutTier::SheddingTenants => 2,
                    },
                    retry_after_ms: self.drain_ms_hint(),
                });
            }
        }
        let tx = self.tx.lock().clone().ok_or(ServeError::ShuttingDown)?;
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            session,
            tenant,
            view,
            tick,
            kind,
            token,
            reply: reply_tx,
        };
        // Reserve the in-flight slot BEFORE the job is visible to a
        // worker: if the increment came after `try_send`, a worker
        // could finish the job and decrement first, wrapping the
        // counter to u64::MAX and tripping the brownout watermarks.
        self.inner.in_flight.fetch_add(1, Ordering::SeqCst);
        match tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.inner.in_flight.fetch_sub(1, Ordering::SeqCst);
                self.inner.metrics.overloaded.fetch_add(1, Ordering::SeqCst);
                return Err(ServeError::Overloaded {
                    capacity: self.inner.queue_capacity,
                    retry_after_ms: self.drain_ms_hint(),
                });
            }
            Err(TrySendError::Disconnected(_)) => {
                self.inner.in_flight.fetch_sub(1, Ordering::SeqCst);
                return Err(ServeError::ShuttingDown);
            }
        }
        reply_rx.recv().map_err(|_| ServeError::ShuttingDown)?
    }

    /// Advisory wall-clock estimate for draining the current backlog:
    /// `in_flight × EMA service time ÷ workers`, floored at 1 ms.
    fn drain_ms_hint(&self) -> u64 {
        let in_flight = self.inner.in_flight.load(Ordering::SeqCst).max(1);
        let ema_us = self.inner.ema_service_us.load(Ordering::SeqCst).max(1);
        (in_flight.saturating_mul(ema_us) / self.inner.workers as u64 / 1_000).max(1)
    }

    // ---- observation -----------------------------------------------------

    /// Aggregate counters. Never takes the engine lock, so it is safe
    /// to poll while writes (or a deliberately wedged
    /// [`Server::with_dbms_mut`]) are in flight, and takes each other
    /// lock in a statement of its own: a lock temporary in a struct
    /// literal lives to the end of the literal, so reading them inline
    /// would hold the breaker and brownout locks while waiting on the
    /// session table.
    #[must_use]
    pub fn metrics(&self) -> ServerMetrics {
        let m = &self.inner.metrics;
        let breaker = self.inner.breaker.lock().stats();
        let brownout = self.inner.brownout.lock().stats();
        let open_sessions = self.inner.sessions.lock().len();
        ServerMetrics {
            served: m.served.load(Ordering::SeqCst),
            commits: m.commits.load(Ordering::SeqCst),
            repairs: m.repairs.load(Ordering::SeqCst),
            overload_rejections: m.overloaded.load(Ordering::SeqCst),
            quota_rejections: m.quota_rejected.load(Ordering::SeqCst),
            deadline_trips: m.deadline_trips.load(Ordering::SeqCst),
            cancelled: m.cancelled.load(Ordering::SeqCst),
            breaker_fast_fails: m.breaker_fast_fails.load(Ordering::SeqCst),
            breaker,
            brownout,
            in_flight: self.inner.in_flight.load(Ordering::SeqCst),
            open_sessions,
        }
    }

    /// The circuit breaker's current state for `view`.
    #[must_use]
    pub fn breaker_state(&self, view: &str) -> BreakerState {
        self.inner.breaker.lock().state(view)
    }

    /// The brownout controller's tier as of its last admission
    /// decision.
    #[must_use]
    pub fn brownout_tier(&self) -> BrownoutTier {
        self.inner.brownout.lock().tier()
    }

    /// The engine's current reclamation epoch and the oldest epoch a
    /// session snapshot still pins; their difference is the pin lag
    /// slow readers impose on store reclamation. Takes the engine
    /// lock briefly.
    #[must_use]
    pub fn epoch_status(&self) -> (u64, Option<u64>) {
        self.inner.dbms.lock().epoch_status()
    }

    /// Front-cache counter snapshot.
    #[must_use]
    pub fn cache_stats(&self) -> FrontCacheStats {
        self.inner.cache.lock().stats()
    }

    /// A tenant's admission ledger.
    #[must_use]
    pub fn tenant_usage(&self, tenant: &str) -> TenantUsage {
        self.inner.admission.lock().usage(tenant)
    }

    /// The commit log so far, in version order.
    #[must_use]
    pub fn commit_log(&self) -> Vec<CommitRecord> {
        self.inner.commit_log.lock().clone()
    }

    /// Run `f` with shared access to the engine (diagnostics and test
    /// oracles; does not go through admission or the queue).
    pub fn with_dbms<R>(&self, f: impl FnOnce(&StatDbms) -> R) -> R {
        f(&self.inner.dbms.lock())
    }

    /// Run `f` with exclusive access to the engine — a maintenance
    /// escape hatch (fault injection, scrubbing, test setup). Any
    /// out-of-band mutation that does not bump the view's version
    /// must be followed by [`Server::purge_view_cache`], or stale
    /// front-cache entries may be served.
    pub fn with_dbms_mut<R>(&self, f: impl FnOnce(&mut StatDbms) -> R) -> R {
        f(&mut self.inner.dbms.lock())
    }

    /// Drop every front-cache entry for `view`, whatever its version.
    pub fn purge_view_cache(&self, view: &str) {
        self.inner.cache.lock().purge_view(view);
    }

    // ---- lifecycle -------------------------------------------------------

    /// Stop accepting requests, drain the queue, join the workers, and
    /// return the engine. Returns `None` only if an outstanding clone
    /// of the server's internals keeps it alive — impossible through
    /// the public API.
    pub fn shutdown(self) -> Option<StatDbms> {
        // Dropping the sender disconnects the channel; workers finish
        // the jobs already queued, then exit.
        *self.tx.lock() = None;
        let handles = std::mem::take(&mut *self.workers.lock());
        for h in handles {
            let _ = h.join();
        }
        // Sessions hold snapshot pins into the engine's epoch
        // registry; release them before handing the engine back.
        self.inner.sessions.lock().clear();
        let Server { inner, .. } = self;
        match Arc::try_unwrap(inner) {
            Ok(inner) => Some(inner.dbms.into_inner()),
            Err(_) => None,
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("queue_capacity", &self.inner.queue_capacity)
            .field("open_sessions", &self.inner.sessions.lock().len())
            .finish()
    }
}

// ---- worker side ---------------------------------------------------------

fn worker_loop(inner: &Arc<Inner>, rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the receiver lock only for the dequeue itself; jobs
        // execute with the queue free for other workers. Idling in
        // recv() under it is the designed hand-off: the lock guards
        // only this receiver, and every worker waiting on it is the
        // idle pool.
        let job = rx.lock().recv();
        let Ok(job) = job else {
            return; // channel disconnected: shutdown
        };
        let started = Instant::now();
        let result = match &job.kind {
            JobKind::Query(q) => process_query(inner, &job, q),
            JobKind::Commit(ops) => process_commit(inner, &job, ops),
            JobKind::Repair => process_repair(inner, &job),
        };
        // Service-time EMA feeds the retry_after hints only — the
        // wall clock never influences what a response contains.
        update_ema(
            &inner.ema_service_us,
            started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        );
        match &result {
            Err(ServeError::DeadlineExceeded) => {
                inner.metrics.deadline_trips.fetch_add(1, Ordering::SeqCst);
            }
            Err(ServeError::Cancelled) => {
                inner.metrics.cancelled.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        }
        inner.in_flight.fetch_sub(1, Ordering::SeqCst);
        // A caller that gave up waiting just drops the receiver; the
        // send failure is not an error for the server.
        let _ = job.reply.send(result);
    }
}

/// Fold one service-time sample into the EMA (α = 1/8). Load/store
/// rather than CAS: a lost sample under a race skews a hint by
/// microseconds, which is cheaper than contending on the hot path.
fn update_ema(cell: &AtomicU64, sample_us: u64) {
    let old = cell.load(Ordering::SeqCst);
    let new = if old == 0 {
        sample_us.max(1)
    } else {
        old - old / 8 + sample_us / 8
    };
    cell.store(new.max(1), Ordering::SeqCst);
}

/// Finish a successful request: price its I/O, debit the tenant, fold
/// the counters into the session ledger, and build the response.
fn finish(
    inner: &Inner,
    job: &Job,
    payload: Payload,
    served: Served,
    version: u64,
    io: IoSnapshot,
) -> Result<Response> {
    // Front-cache hits are free; anything the engine executed pays at
    // least the quota's floor (resident reads register only pool hits,
    // which the cost model prices at zero).
    let cost_milli = if served == Served::FrontCache {
        0
    } else {
        inner.cost_model.cost_milli(&io).max(inner.min_charge_milli)
    };
    inner.admission.lock().charge(&job.tenant, &io, cost_milli);
    {
        let mut sessions = inner.sessions.lock();
        if let Some(st) = sessions.get_mut(&job.session) {
            st.io.merge(&io);
            st.served += 1;
        }
    }
    inner.metrics.served.fetch_add(1, Ordering::SeqCst);
    Ok(Response {
        payload,
        served,
        view: job.view.clone(),
        version,
        generation: 0,
        io,
        cost_milli,
        tick: job.tick,
    })
}

/// Return the session's pinned snapshot, re-pinning if the view's
/// version has moved since it was taken.
fn refresh_snapshot(inner: &Inner, job: &Job) -> Result<Arc<Snapshot>> {
    let pinned = inner
        .sessions
        .lock()
        .get(&job.session)
        .and_then(|s| s.snap.clone());
    let current = inner.dbms.lock().view_version(&job.view)?;
    if let Some(snap) = pinned {
        if snap.version() == current {
            return Ok(snap);
        }
    }
    let fresh = Arc::new(inner.dbms.lock().snapshot(&job.view)?);
    // A session closed mid-flight just skips the re-pin; the snapshot
    // still answers this one request consistently.
    if let Some(st) = inner.sessions.lock().get_mut(&job.session) {
        st.snap = Some(Arc::clone(&fresh));
    }
    Ok(fresh)
}

fn process_query(inner: &Inner, job: &Job, query: &Query) -> Result<Response> {
    // The request budget governs everything this job does: the scope
    // makes the token ambient, so every device operation the engine
    // performs on this thread charges it.
    let _budget = BudgetScope::enter(job.token.clone());
    // A request that spent its whole budget waiting in the queue stops
    // here, before touching the engine.
    job.token.check().map_err(CoreError::from)?;
    // A fallback-eligible (degraded/repairing) view takes the archive
    // recompute path, which never consults the circuit breaker: the
    // degraded route *is* the safe fallback the breaker would other-
    // wise be protecting us toward. Unrecoverable views go the same
    // way so the engine can surface its typed error.
    let health = inner.dbms.lock().health(&job.view)?;
    if health.can_serve_fallback() || health == ViewHealth::Unrecoverable {
        return process_degraded_query(inner, job, query);
    }
    let snap = refresh_snapshot(inner, job)?;
    let key = QueryKey {
        view: job.view.clone(),
        version: snap.version(),
        query: query.canonical(),
    };
    if let Some(payload) = inner.cache.lock().get(&key, job.tick) {
        // A front-cache hit does zero engine I/O and is billed zero.
        // It also never touches the breaker: a hit proves nothing
        // about the engine's health.
        return finish(
            inner,
            job,
            payload,
            Served::FrontCache,
            snap.version(),
            IoSnapshot::default(),
        );
    }
    // The breaker guards exactly the engine-compute path: cache hits
    // were served above, and an unhealthy view already branched to the
    // degraded path (which keeps serving — ComputeSource::Fallback is
    // the breaker-open answer when health is impaired).
    match inner.breaker.lock().admit(&job.view, job.tick) {
        BreakerAdmit::FastFail { retry_after_ticks } => {
            inner
                .metrics
                .breaker_fast_fails
                .fetch_add(1, Ordering::SeqCst);
            return Err(ServeError::BreakerOpen {
                view: job.view.clone(),
                retry_after_ms: inner.ticks_to_ms_hint(retry_after_ticks),
            });
        }
        BreakerAdmit::Allow | BreakerAdmit::Probe => {}
    }
    // Miss: compute against the pinned snapshot inside a per-request
    // I/O scope. Summaries take the engine's miss path past the
    // snapshot's memo, so the uncached baseline does the real work
    // every time — the front cache above is what this layer measures.
    let stats = Arc::new(IoStats::default());
    let computed: Result<Payload> = {
        let _scope = IoScope::enter(Arc::clone(&stats));
        compute_payload(&snap, query)
    };
    // The compute's outcome drives the breaker: deadline trips and
    // engine faults count against the view, client cancellations and
    // client mistakes are neutral (see ServeError::is_breaker_failure).
    match &computed {
        Ok(_) => inner.breaker.lock().record_success(&job.view, job.tick),
        Err(e) if e.is_breaker_failure() => {
            inner.breaker.lock().record_failure(&job.view, job.tick);
        }
        Err(_) => {}
    }
    // A budget-tripped compute propagates here: the cache insert below
    // is never reached, so a cancelled request can never poison the
    // front cache with a partial result.
    let payload = computed?;
    inner.cache.lock().insert(key, payload.clone(), job.tick);
    finish(
        inner,
        job,
        payload,
        Served::Computed,
        snap.version(),
        stats.snapshot(),
    )
}

/// The engine compute for one query against a pinned snapshot, run
/// inside the caller's budget and I/O scopes. Split out as a function
/// so its `Result` comes back whole: a `?` inline in `process_query`
/// would return before the breaker could record the outcome.
fn compute_payload(snap: &Snapshot, query: &Query) -> Result<Payload> {
    match query {
        Query::Summary {
            attribute,
            function,
        } => Ok(Payload::Summary(
            snap.compute_uncached(attribute, function)?,
        )),
        Query::Column { attribute } => Ok(Payload::Column(snap.column(attribute)?)),
        Query::Row { index } => Ok(Payload::Row(snap.row(*index)?)),
    }
}

/// The impaired-view path: route through the engine's own degraded
/// read machinery under the write lock. Whatever comes back is never
/// admitted to the front cache — a fallback answer is correct *now*
/// but not tied to a store version.
fn process_degraded_query(inner: &Inner, job: &Job, query: &Query) -> Result<Response> {
    // Usually entered from process_query with the budget scope already
    // installed; re-entering with the same token is a harmless shadow,
    // and it keeps this function honest if it is ever called directly.
    let _budget = BudgetScope::enter(job.token.clone());
    job.token.check().map_err(CoreError::from)?;
    let stats = Arc::new(IoStats::default());
    let (payload, source, version) = {
        let mut dbms = inner.dbms.lock();
        let _scope = IoScope::enter(Arc::clone(&stats));
        let (payload, source) = match query {
            Query::Summary {
                attribute,
                function,
            } => {
                let (value, source) =
                    dbms.compute(&job.view, attribute, function, AccuracyPolicy::Exact)?;
                (Payload::Summary(value), source)
            }
            Query::Column { attribute } => (
                Payload::Column(dbms.column(&job.view, attribute)?),
                ComputeSource::Computed,
            ),
            Query::Row { index } => (
                Payload::Row(dbms.row(&job.view, *index)?),
                ComputeSource::Computed,
            ),
        };
        (payload, source, dbms.view_version(&job.view)?)
    };
    let served = if source == ComputeSource::Fallback {
        inner.cache.lock().note_fallback_rejection();
        Served::Fallback
    } else {
        Served::Computed
    };
    finish(inner, job, payload, served, version, stats.snapshot())
}

fn process_commit(inner: &Inner, job: &Job, ops: &[BatchOp]) -> Result<Response> {
    // The budget covers staging and the shadow apply. A trip anywhere
    // before the install swap surfaces as a typed error from
    // commit_batch's clean-abort path: pre-batch state intact, lock
    // released, nothing recorded in the commit log.
    let _budget = BudgetScope::enter(job.token.clone());
    job.token.check().map_err(CoreError::from)?;
    let stats = Arc::new(IoStats::default());
    let (report, version_after) = {
        let mut dbms = inner.dbms.lock();
        let _scope = IoScope::enter(Arc::clone(&stats));
        let batch = dbms.begin_batch(&job.view)?;
        for op in ops {
            if let Err(e) = dbms.batch_stage(batch, op.clone()) {
                // A failed abort leaves the batch wedged in the
                // engine — graver than the stage error, so it takes
                // precedence when both fail.
                dbms.abort_batch(batch)?;
                return Err(e.into());
            }
        }
        let report = dbms.commit_batch(batch)?;
        let version_after = dbms.view_version(&job.view)?;
        // Record while still holding the write lock so commit-log
        // order equals store-version order — the property the
        // differential harness replays against.
        inner.commit_log.lock().push(CommitRecord {
            view: job.view.clone(),
            ops: ops.to_vec(),
            version_after,
            rows_matched: report.rows_matched,
            cells_changed: report.cells_changed,
        });
        (report, version_after)
    };
    inner.metrics.commits.fetch_add(1, Ordering::SeqCst);
    finish(
        inner,
        job,
        Payload::Committed {
            rows_matched: report.rows_matched,
            cells_changed: report.cells_changed,
        },
        Served::Write,
        version_after,
        stats.snapshot(),
    )
}

fn process_repair(inner: &Inner, job: &Job) -> Result<Response> {
    // Repairs carry an unbounded token (see Server::repair), so the
    // scope is installed for uniformity — and for the deadline-bypass
    // lint, which wants every IoScope paired with a BudgetScope.
    let _budget = BudgetScope::enter(job.token.clone());
    job.token.check().map_err(CoreError::from)?;
    let stats = Arc::new(IoStats::default());
    let (report, version) = {
        let mut dbms = inner.dbms.lock();
        let _scope = IoScope::enter(Arc::clone(&stats));
        let report = dbms.repair_view(&job.view)?;
        (report, dbms.view_version(&job.view)?)
    };
    // A repair that mends pages in place moves no version, so the key
    // cannot retire the view's entries; drop them all (`crate::cache`).
    inner.cache.lock().purge_view(&job.view);
    inner.metrics.repairs.fetch_add(1, Ordering::SeqCst);
    finish(
        inner,
        job,
        Payload::Repaired {
            store_regenerated: report.store_regenerated,
            summary_reset: report.summary_reset,
        },
        Served::Write,
        version,
        stats.snapshot(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_testkit::CensusFixture;
    use std::time::Duration;

    #[test]
    fn metrics_holds_no_lock_while_waiting_on_the_session_table() {
        let server = Arc::new(Server::start(
            CensusFixture::new().build().expect("fixture"),
            ServeConfig::default(),
        ));
        let sessions = server.inner.sessions.lock();
        let poller = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.metrics().open_sessions)
        };
        // Give the poller time to block on the session table. A late
        // start can only hide the bug, never fail correct code: the
        // fixed metrics() holds nothing while it waits.
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            server.inner.breaker.try_lock().is_some(),
            "metrics() held the breaker while waiting on the session table"
        );
        assert!(
            server.inner.brownout.try_lock().is_some(),
            "metrics() held the brownout controller while waiting on the session table"
        );
        drop(sessions);
        assert_eq!(poller.join().expect("poller"), 0);
    }
}
