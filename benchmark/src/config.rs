//! Each workload's full configuration. Everything here is stamped
//! into the result so a number can always be traced to its sizes.

use crate::json::Json;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeMixed,
    AnalystSession,
    CleanUpdate,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_hot" => Some(Workload::ServeHot),
            "serve_mixed" => Some(Workload::ServeMixed),
            "analyst_session" => Some(Workload::AnalystSession),
            "clean_update" => Some(Workload::CleanUpdate),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeMixed => "serve_mixed",
            Workload::AnalystSession => "analyst_session",
            Workload::CleanUpdate => "clean_update",
        }
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeHot | Workload::ServeMixed)
    }
}

/// Sizes and knobs of one workload. Fields that do not apply to a
/// workload are zero.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    /// Person records in the census view.
    pub rows: usize,
    /// Buffer-pool frames.
    pub pool_pages: usize,
    /// Census generator error fractions (data-cleaning input).
    pub invalid_fraction: f64,
    pub outlier_fraction: f64,
    /// `DurabilityPolicy::CrashConsistent` when true.
    pub crash_consistent: bool,
    /// Closed-loop analyst threads (`min(nproc, 2)` for the server
    /// workloads, 1 for the direct ones).
    pub analysts: usize,
    /// `ExecConfig.workers`: `min(nproc, 2)`.
    pub exec_workers: usize,
    /// `ServeConfig.workers`: the cores the analysts leave, at most 2
    /// and at least 1. Two analysts and two workers on two cores is a
    /// bistable regime (workers either never sleep or pay a wake-up
    /// per request, and throughput swings 2x between windows); with
    /// no more runnable threads than cores plus one the server sits
    /// steadily at the capacity of its busy worker.
    pub serve_workers: usize,
    /// Front-cache entries (serve workloads).
    pub cache_capacity: usize,
    /// Front-cache TTL in request ticks.
    pub cache_ttl: u64,
    /// Zipf exponent of the query picker.
    pub zipf_exponent: f64,
    /// Summary queries in the universe, then `Row` reads.
    pub universe_rows: usize,
    /// Analyst 0 commits on every this-many-th request (0 = never).
    pub commit_every: usize,
    /// Pacer ops per window: metrics are computed per window and the
    /// median across windows is reported.
    pub window_ops: usize,
    /// Windows discarded as warm-up before measurement starts.
    pub warmup_windows: usize,
    /// How many times the fixture is set up; `setup_s` is the median.
    pub setups: usize,
    /// The traced pass replays one request in this many (seeded), so
    /// each workload's trace holds a few hundred sampled requests.
    pub trace_sample_every: u64,
}

/// Cores this process may use.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl Config {
    /// The configuration of `workload` on this machine. `quick` keeps
    /// the shape and cuts the repetition (one set-up, one warm-up
    /// window).
    pub fn of(workload: Workload, quick: bool) -> Config {
        let cores = parallelism();
        let two = cores.min(2);
        let base = Config {
            workload,
            rows: 100_000,
            // Fits the whole view with room for shadow copies.
            pool_pages: 16_384,
            invalid_fraction: 0.0,
            outlier_fraction: 0.0,
            crash_consistent: false,
            analysts: 1,
            exec_workers: two,
            serve_workers: cores.saturating_sub(two).clamp(1, 2),
            cache_capacity: 0,
            cache_ttl: 0,
            zipf_exponent: 1.1,
            universe_rows: 0,
            commit_every: 0,
            window_ops: 0,
            warmup_windows: if quick { 1 } else { 2 },
            setups: if quick { 1 } else { 5 },
            trace_sample_every: 8,
        };
        match workload {
            Workload::ServeHot => Config {
                analysts: two,
                cache_capacity: 1024,
                // Never expires inside a run: after warm-up every
                // request is a front-cache hit, which is the point.
                cache_ttl: u64::MAX / 2,
                universe_rows: 64,
                window_ops: 8_000,
                trace_sample_every: 256,
                ..base
            },
            Workload::ServeMixed => Config {
                rows: 20_000,
                analysts: two,
                cache_capacity: 64,
                cache_ttl: 50_000,
                zipf_exponent: 1.3,
                universe_rows: 2_000,
                commit_every: 250,
                window_ops: 500,
                trace_sample_every: 16,
                ..base
            },
            Workload::AnalystSession => Config {
                // A quarter of the ~2 000 pages the 100k-row view
                // allocates: the working set does not fit the pool.
                pool_pages: 512,
                window_ops: 200,
                ..base
            },
            Workload::CleanUpdate => Config {
                rows: 20_000,
                invalid_fraction: 0.002,
                outlier_fraction: 0.01,
                crash_consistent: true,
                // Two cycles of 10 writes, 30 reads and one check.
                window_ops: 82,
                trace_sample_every: 4,
                ..base
            },
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(self.workload.name())),
            ("rows", Json::Num(self.rows as f64)),
            ("pool_pages", Json::Num(self.pool_pages as f64)),
            ("invalid_fraction", Json::Num(self.invalid_fraction)),
            ("outlier_fraction", Json::Num(self.outlier_fraction)),
            ("crash_consistent", Json::Bool(self.crash_consistent)),
            ("analysts", Json::Num(self.analysts as f64)),
            ("exec_workers", Json::Num(self.exec_workers as f64)),
            ("serve_workers", Json::Num(self.serve_workers as f64)),
            ("cache_capacity", Json::Num(self.cache_capacity as f64)),
            ("cache_ttl", Json::Num(self.cache_ttl as f64)),
            ("zipf_exponent", Json::Num(self.zipf_exponent)),
            ("universe_rows", Json::Num(self.universe_rows as f64)),
            ("commit_every", Json::Num(self.commit_every as f64)),
            ("window_ops", Json::Num(self.window_ops as f64)),
            ("warmup_windows", Json::Num(self.warmup_windows as f64)),
            ("setups", Json::Num(self.setups as f64)),
            (
                "trace_sample_every",
                Json::Num(self.trace_sample_every as f64),
            ),
        ])
    }
}
