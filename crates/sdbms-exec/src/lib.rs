//! Morsel-driven parallel scan/aggregation executor.
//!
//! The paper's workload is column-at-a-time full scans over concrete
//! views — embarrassingly parallel work. This crate splits a column's
//! row range into fixed-size *morsels*, lets a pool of worker threads
//! pull morsels from a shared queue (the NUMA-oblivious core of
//! Leis et al.'s morsel-driven scheme), and combines per-morsel partial
//! results **deterministically**: partials are stored per morsel and
//! merged in morsel-index order, so the result is bit-identical no
//! matter how many workers ran the scan or how the morsels were
//! interleaved. The morsel partition depends only on the row count and
//! the configured morsel size — never on the worker count — which is
//! what makes `workers = 1` and `workers = 8` produce identical bytes.
//!
//! Aggregation state rides in [`ColumnProfile`]: the mergeable
//! accumulators of `sdbms-stats` (moments, extremes, frequencies) plus
//! the numeric values gathered *in row order*, so every answer can be
//! the exact serial slice code over the concatenated data and never
//! depends on the morsel partition. A scan feeds only the
//! [`Accumulators`] its caller's statistics read.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernels;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use sdbms_columnar::TableStore;
use sdbms_data::Value;
use sdbms_stats::{FrequencyTable, MinMaxAcc, Moments};
use sdbms_storage::ambient;

/// Environment variable overriding the worker count
/// (`SDBMS_WORKERS=4`). Unset, empty, unparsable, or `0` all fall back
/// to the machine's available parallelism.
pub const WORKERS_ENV: &str = "SDBMS_WORKERS";

/// Default rows per morsel: four 256-row columnar segments, so a
/// morsel decodes whole segments and never splits one across workers.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Executor configuration: worker-pool size and morsel granularity.
///
/// Only `workers` may vary between runs that must agree bit-for-bit;
/// `morsel_rows` changes the partition and therefore the merge tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads for a scan (1 = run on the calling thread).
    pub workers: usize,
    /// Rows per morsel.
    pub morsel_rows: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::from_env()
    }
}

impl ExecConfig {
    /// Configuration from the environment: `SDBMS_WORKERS` workers,
    /// defaulting to the machine's available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        let workers = std::env::var(WORKERS_ENV)
            .ok()
            .and_then(|s| parse_workers(&s))
            .unwrap_or_else(default_workers);
        ExecConfig {
            workers,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }

    /// An explicit worker count with the default morsel size.
    #[must_use]
    pub fn with_workers(workers: usize) -> Self {
        ExecConfig {
            workers: workers.max(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }

    /// Single-threaded execution (still morsel-at-a-time, so results
    /// match the parallel path exactly).
    #[must_use]
    pub fn serial() -> Self {
        Self::with_workers(1)
    }

    /// Number of morsels a scan of `rows` rows splits into.
    #[must_use]
    pub fn morsel_count(&self, rows: usize) -> usize {
        rows.div_ceil(self.morsel_rows.max(1))
    }
}

/// Parse a `SDBMS_WORKERS` value; `None` for empty/invalid/zero.
#[must_use]
pub fn parse_workers(s: &str) -> Option<usize> {
    match s.trim().parse::<usize>() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(n),
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One unit of scan work: a contiguous row range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Position in the morsel sequence (the merge order).
    pub index: usize,
    /// First row of the range.
    pub start: usize,
    /// Rows in the range.
    pub len: usize,
}

/// Run `work` over every morsel of a `rows`-row scan and return the
/// per-morsel results **in morsel order**.
///
/// Workers pull morsel indices from a shared atomic counter; each
/// result lands in its morsel's slot, so the returned vector is
/// independent of scheduling. On error the scan aborts early
/// (cooperatively — no worker blocks on another) and the error with
/// the smallest morsel index among those actually produced is
/// returned, so a given fault pattern fails the same way regardless of
/// interleaving where possible.
///
/// The calling thread's ambient request scopes (I/O attribution,
/// deadline budget) are re-installed in every worker, so a fanned-out
/// scan is billed to, and bounded by, the request that issued it.
/// Cancellation needs no separate entry point: every device attempt
/// under `work` checks the ambient budget, and a trip surfaces as a
/// typed error through the same cooperative abort as any morsel error
/// — at most the one in-flight morsel per worker finishes, and a
/// partial result is never returned.
pub fn scan_morsels<T, E, F>(rows: usize, cfg: &ExecConfig, work: F) -> Result<Vec<T>, E>
where
    F: Fn(Morsel) -> Result<T, E> + Sync,
    T: Send,
    E: Send,
{
    let morsel_rows = cfg.morsel_rows.max(1);
    let n = cfg.morsel_count(rows);
    let morsel = |i: usize| Morsel {
        index: i,
        start: i * morsel_rows,
        len: morsel_rows.min(rows - i * morsel_rows),
    };
    let workers = cfg.workers.max(1).min(n.max(1));
    if workers == 1 {
        // Same morsel partition, same merge order — just no threads.
        return (0..n).map(|i| work(morsel(i))).collect();
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let ambient = ambient::capture();
    let mut slots: Vec<Option<Result<T, E>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _ambient = ambient.install();
                    let mut produced: Vec<(usize, Result<T, E>)> = Vec::new();
                    // lint: allow(relaxed-ordering): abort is a best-effort shutdown hint; a stale read only costs one extra morsel, never correctness
                    while !abort.load(Ordering::Relaxed) {
                        // lint: allow(relaxed-ordering): ticket dispenser — fetch_add's RMW atomicity alone guarantees unique morsel indices
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = work(morsel(i));
                        if r.is_err() {
                            // lint: allow(relaxed-ordering): see abort load above; results travel through join, not this flag
                            abort.store(true, Ordering::Relaxed);
                        }
                        produced.push((i, r));
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            // A panic in `work` propagates: the scan never silently
            // drops a morsel.
            // lint: allow(no-panic): deliberately re-raises a worker panic on the coordinator; swallowing it would drop morsels
            for (i, r) in h.join().expect("scan worker panicked") {
                slots[i] = Some(r);
            }
        }
    });

    let mut out = Vec::with_capacity(n);
    let mut first_err: Option<E> = None;
    for slot in slots {
        match slot {
            Some(Ok(v)) if first_err.is_none() => out.push(v),
            Some(Ok(_)) => {}
            Some(Err(e)) => {
                first_err.get_or_insert(e);
            }
            // Skipped after an abort; the recorded error is returned.
            None => {}
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Which of a [`ColumnProfile`]'s accumulators a scan feeds. Callers
/// derive the set from the statistics they are about to answer, so a
/// `Mean` miss builds no frequency table and a `Mode` miss gathers no
/// numbers. Row counts are always kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accumulators(u8);

impl Accumulators {
    /// Nothing beyond the row counts.
    pub const NONE: Self = Accumulators(0);
    /// [`ColumnProfile::moments`].
    pub const MOMENTS: Self = Accumulators(1);
    /// [`ColumnProfile::minmax`].
    pub const MINMAX: Self = Accumulators(2);
    /// [`ColumnProfile::freq`].
    pub const FREQ: Self = Accumulators(4);
    /// [`ColumnProfile::numbers`].
    pub const NUMBERS: Self = Accumulators(8);
    /// Every accumulator — what [`ColumnProfile::default`] feeds.
    pub const ALL: Self = Accumulators(15);

    /// Both sets combined.
    #[must_use]
    pub const fn union(self, other: Self) -> Self {
        Accumulators(self.0 | other.0)
    }

    /// Whether every accumulator of `other` is in this set.
    #[must_use]
    pub const fn contains(self, other: Self) -> bool {
        self.0 & other.0 == other.0
    }
}

impl Default for Accumulators {
    fn default() -> Self {
        Accumulators::ALL
    }
}

/// Single-pass, mergeable summary state for one column — the paper's
/// "one scan feeds min/max/mean/median-window/frequency" design, and
/// the only input of the Summary Database's evaluator.
///
/// Per-morsel profiles are built independently and merged in morsel
/// order, so a profile is a pure function of (column, morsel size):
/// bit-identical across worker counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnProfile {
    /// Values seen (including missing / non-numeric).
    pub rows: usize,
    /// Values with no numeric view (`Missing`, strings, codes).
    pub non_numeric: usize,
    /// Welford/Chan moments over the numeric values.
    pub moments: Moments,
    /// Extremes with occurrence counts.
    pub minmax: MinMaxAcc,
    /// Occurrence counts of every value (including `Missing`).
    pub freq: FrequencyTable,
    /// The numeric values in row order — exactly the slice the serial
    /// path hands to the quantile code, so order statistics computed
    /// from a profile are bit-identical to the serial computation.
    pub numbers: Vec<f64>,
    /// The accumulators this profile feeds; the others stay empty.
    feeds: Accumulators,
}

impl ColumnProfile {
    /// An empty profile that feeds only `feeds`.
    #[must_use]
    pub fn feeding(feeds: Accumulators) -> Self {
        ColumnProfile {
            feeds,
            ..ColumnProfile::default()
        }
    }

    /// The accumulators this profile feeds.
    #[must_use]
    pub fn feeds(&self) -> Accumulators {
        self.feeds
    }

    /// Fold numeric values, in order, into the fed numeric
    /// accumulators. One loop per accumulator keeps each monomorphic.
    pub(crate) fn add_numbers(&mut self, xs: impl Iterator<Item = f64> + Clone) {
        if self.feeds.contains(Accumulators::MOMENTS) {
            xs.clone().for_each(|x| self.moments.add(x));
        }
        if self.feeds.contains(Accumulators::MINMAX) {
            xs.clone().for_each(|x| self.minmax.add(x));
        }
        if self.feeds.contains(Accumulators::NUMBERS) {
            self.numbers.extend(xs);
        }
    }

    /// Count one occurrence of `v` if the frequency table is fed.
    pub(crate) fn count_value(&mut self, v: &Value) {
        if self.feeds.contains(Accumulators::FREQ) {
            self.freq.add(v);
        }
    }

    /// Absorb `n` consecutive rows holding the same value — the
    /// compressed-domain entry point [`kernels::add_batch`] feeds from
    /// a batch's run view (RLE/dictionary segments).
    ///
    /// Contract: feeding the runs of a sequence (under *any* partition
    /// into constant runs) produces a profile `==` to
    /// [`ColumnProfile::from_values`] on the expanded sequence. The
    /// frequency table and extremes fold whole runs in O(1); the
    /// moments deliberately replay per row (see
    /// [`Moments::add_run`]) and `numbers` keeps every row for the
    /// exact quantile path — so the win is skipping per-row `Value`
    /// decode, clone, `as_f64` dispatch, and frequency-map lookups,
    /// not the flops.
    pub fn add_run(&mut self, v: &Value, n: usize) {
        if n == 0 {
            return;
        }
        self.rows += n;
        if self.feeds.contains(Accumulators::FREQ) {
            self.freq.add_count(v, n as u64);
        }
        match v.as_f64() {
            Some(x) => {
                if self.feeds.contains(Accumulators::MOMENTS) {
                    self.moments.add_run(x, n);
                }
                if self.feeds.contains(Accumulators::MINMAX) {
                    self.minmax.add_run(x, n);
                }
                if self.feeds.contains(Accumulators::NUMBERS) {
                    self.numbers.extend(std::iter::repeat_n(x, n));
                }
            }
            None => self.non_numeric += n,
        }
    }

    /// Profile one run of values (a morsel's partial state).
    #[must_use]
    pub fn from_values(values: &[Value]) -> Self {
        Self::of(values, Accumulators::ALL)
    }

    /// [`ColumnProfile::from_values`] feeding only `feeds`.
    #[must_use]
    pub fn of(values: &[Value], feeds: Accumulators) -> Self {
        let mut p = ColumnProfile::feeding(feeds);
        let numbers = values.iter().filter_map(Value::as_f64);
        p.rows = values.len();
        p.non_numeric = values.len() - numbers.clone().count();
        if feeds.contains(Accumulators::FREQ) {
            values.iter().for_each(|v| p.freq.add(v));
        }
        p.add_numbers(numbers);
        p
    }

    /// Absorb the partial state of the *following* row range (fed the
    /// same accumulators). Merging morsel profiles in morsel-index
    /// order reconstructs the whole-column profile.
    pub fn merge(&mut self, other: ColumnProfile) {
        self.rows += other.rows;
        self.non_numeric += other.non_numeric;
        self.moments.merge(&other.moments);
        self.minmax.merge(&other.minmax);
        self.freq.merge(&other.freq);
        self.numbers.extend(other.numbers);
    }
}

/// Parallel column read: morsels are fetched and decoded concurrently,
/// then concatenated in morsel order — the result is the same
/// `Vec<Value>` a serial `read_column` produces.
pub fn read_with<E, F>(rows: usize, cfg: &ExecConfig, read: F) -> Result<Vec<Value>, E>
where
    F: Fn(usize, usize) -> Result<Vec<Value>, E> + Sync,
    E: Send,
{
    let chunks = scan_morsels(rows, cfg, |m| read(m.start, m.len))?;
    let mut out = Vec::with_capacity(rows);
    for c in chunks {
        out.extend(c);
    }
    Ok(out)
}

/// Parallel [`TableStore::read_column`]: bit-identical output, morsel
/// fetches in parallel.
pub fn read_table_column<S>(
    store: &S,
    attribute: &str,
    cfg: &ExecConfig,
) -> sdbms_columnar::store::Result<Vec<Value>>
where
    S: TableStore + Sync + ?Sized,
{
    read_with(store.len(), cfg, |start, len| {
        store.read_column_range(attribute, start, len)
    })
}

/// Single-pass parallel profile of one stored column, every
/// accumulator fed.
pub fn profile_table_column<S>(
    store: &S,
    attribute: &str,
    cfg: &ExecConfig,
) -> sdbms_columnar::store::Result<ColumnProfile>
where
    S: TableStore + Sync + ?Sized,
{
    profile_table_column_for(store, attribute, cfg, Accumulators::ALL)
}

/// Single-pass parallel profile of one stored column, feeding only the
/// accumulators in `feeds`.
///
/// Each morsel is fetched as a typed [`sdbms_columnar::ColumnBatch`]
/// — decoded straight from segment bytes on segmented layouts, no
/// per-row `Value` materialization — and folded by the vectorized
/// [`kernels::add_batch`] kernel. The result is `==` to the per-cell
/// oracle ([`ColumnProfile::of`] the decoded column, merged per
/// morsel) bit for bit, at every worker count.
pub fn profile_table_column_for<S>(
    store: &S,
    attribute: &str,
    cfg: &ExecConfig,
    feeds: Accumulators,
) -> sdbms_columnar::store::Result<ColumnProfile>
where
    S: TableStore + Sync + ?Sized,
{
    let partials = scan_morsels(
        store.len(),
        cfg,
        |m| -> sdbms_columnar::store::Result<ColumnProfile> {
            let batch = store.read_column_batch(attribute, m.start, m.len)?;
            let mut p = ColumnProfile::feeding(feeds);
            kernels::add_batch(&mut p, &batch);
            Ok(p)
        },
    )?;
    Ok(merged(feeds, store.len(), partials))
}

/// Merge per-morsel partial profiles, in morsel order, into the
/// profile of the whole `rows`-row column.
fn merged(feeds: Accumulators, rows: usize, partials: Vec<ColumnProfile>) -> ColumnProfile {
    let mut profile = ColumnProfile::feeding(feeds);
    if feeds.contains(Accumulators::NUMBERS) {
        // Upper bound (non-numeric rows contribute nothing); spares
        // the merge loop its reallocation copies.
        profile.numbers.reserve(rows);
    }
    for p in partials {
        profile.merge(p);
    }
    profile
}

/// Decides whether a scan morsel can be skipped outright.
///
/// Implementations answer "may any row in `[start, start + len)`
/// satisfy the predicate?" from per-segment statistics. The contract
/// is one-sided: returning `false` asserts **no** row matches (the
/// morsel is never read), while `true` merely schedules the morsel
/// for a normal scan. A pruner with no information must return
/// `true` — that degrades pruning to a plain scan, never changes
/// results.
pub trait SegmentPruner: Sync {
    /// True unless the statistics refute every row of the range.
    fn may_match(&self, start: usize, len: usize) -> bool;
}

/// The trivial pruner: every morsel is scanned.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPruner;

impl SegmentPruner for NoPruner {
    fn may_match(&self, _start: usize, _len: usize) -> bool {
        true
    }
}

/// Profile an in-memory column (morsel-parallel over slices).
#[must_use]
pub fn profile_values(values: &[Value], cfg: &ExecConfig) -> ColumnProfile {
    let partials = scan_morsels(values.len(), cfg, |m| {
        let morsel = &values[m.start..m.start + m.len];
        Ok::<_, std::convert::Infallible>(ColumnProfile::from_values(morsel))
    });
    match partials {
        Ok(partials) => merged(Accumulators::ALL, values.len(), partials),
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_column(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| match i % 7 {
                0 => Value::Missing,
                1 => Value::Code(u32::try_from(i % 5).unwrap()),
                2 => Value::Float(i as f64 * 0.25 - 100.0),
                _ => Value::Int(i as i64 % 97 - 40),
            })
            .collect()
    }

    #[test]
    fn profiles_bit_identical_across_worker_counts() {
        let col = mixed_column(5000);
        let baseline = profile_values(&col, &ExecConfig::serial());
        for workers in [2, 3, 4, 8] {
            let p = profile_values(&col, &ExecConfig::with_workers(workers));
            assert_eq!(p, baseline, "{workers} workers");
        }
        // The profile agrees with a single straight pass.
        let whole = ColumnProfile::from_values(&col);
        assert_eq!(baseline.rows, whole.rows);
        assert_eq!(baseline.non_numeric, whole.non_numeric);
        assert_eq!(baseline.numbers, whole.numbers);
        assert_eq!(baseline.freq, whole.freq);
        assert_eq!(baseline.minmax, whole.minmax);
    }

    #[test]
    fn parallel_read_matches_serial_concatenation() {
        let col = mixed_column(3000);
        for workers in [1, 2, 4, 8] {
            let got: Vec<Value> = read_with::<std::convert::Infallible, _>(
                col.len(),
                &ExecConfig::with_workers(workers),
                |s, l| Ok(col[s..s + l].to_vec()),
            )
            .unwrap();
            assert_eq!(got, col, "{workers} workers");
        }
    }

    #[test]
    fn run_fed_profile_bit_identical_to_per_row() {
        let col = mixed_column(4000);
        let per_row = ColumnProfile::from_values(&col);
        // Partition into group_eq runs…
        let mut runs: Vec<(Value, usize)> = Vec::new();
        for v in &col {
            match runs.last_mut() {
                Some((rv, n)) if rv.group_eq(v) => *n += 1,
                _ => runs.push((v.clone(), 1)),
            }
        }
        let fed = |runs: &[(Value, usize)]| {
            let mut p = ColumnProfile::default();
            for (v, n) in runs {
                p.add_run(v, *n);
            }
            p
        };
        assert_eq!(fed(&runs), per_row);
        // …and into an arbitrary different partition (every run split):
        let split: Vec<(Value, usize)> = col.iter().map(|v| (v.clone(), 1)).collect();
        assert_eq!(fed(&split), per_row);
        // Zero-length runs are no-ops.
        let mut p = fed(&runs);
        p.add_run(&Value::Int(1), 0);
        assert_eq!(p, per_row);
    }

    #[test]
    fn error_aborts_scan_and_surfaces() {
        let cfg = ExecConfig {
            workers: 4,
            morsel_rows: 16,
        };
        let calls = AtomicUsize::new(0);
        let r: Result<Vec<()>, String> = scan_morsels(10_000, &cfg, |m| {
            calls.fetch_add(1, Ordering::Relaxed);
            if m.index >= 3 {
                Err(format!("morsel {} failed", m.index))
            } else {
                Ok(())
            }
        });
        let err = r.unwrap_err();
        assert!(err.starts_with("morsel "), "{err}");
        // Cooperative abort: nowhere near all 625 morsels ran.
        assert!(calls.load(Ordering::Relaxed) < 600);
    }

    #[test]
    fn cancelled_scan_stops_within_one_morsel_per_worker() {
        use sdbms_storage::budget::{charge_ambient_ops, BudgetScope, CancelToken};
        use sdbms_storage::StorageError;
        for workers in [1, 4] {
            let cfg = ExecConfig {
                workers,
                morsel_rows: 16,
            };
            let token = CancelToken::unbounded();
            let _scope = BudgetScope::enter(token.clone());
            let calls = AtomicUsize::new(0);
            // Each morsel opens with the checkpoint every device attempt
            // makes; the very first one to pass it cancels the request,
            // and everything else must stop at its own next checkpoint.
            let r: Result<Vec<()>, StorageError> = scan_morsels(10_000, &cfg, |_m| {
                charge_ambient_ops(0)?;
                calls.fetch_add(1, Ordering::SeqCst);
                token.cancel();
                Ok(())
            });
            assert_eq!(r.unwrap_err(), StorageError::Cancelled, "{workers} workers");
            assert!(
                calls.load(Ordering::SeqCst) <= workers,
                "at most the one in-flight morsel per worker may finish, got {}",
                calls.load(Ordering::SeqCst)
            );
        }
    }

    #[test]
    fn op_budget_exhaustion_surfaces_typed_deadline_error() {
        use sdbms_storage::budget::{charge_ambient_ops, BudgetScope, CancelToken};
        use sdbms_storage::StorageError;
        for workers in [1, 4] {
            let cfg = ExecConfig {
                workers,
                morsel_rows: 16,
            };
            // Each morsel plays two device attempts on whatever thread it
            // lands on; the charges must reach the calling thread's
            // ambient budget or the scan would never trip.
            let _scope = BudgetScope::enter(CancelToken::with_op_budget(5));
            let r: Result<Vec<()>, StorageError> = scan_morsels(10_000, &cfg, |_m| {
                charge_ambient_ops(2)?;
                Ok(())
            });
            assert_eq!(
                r.unwrap_err(),
                StorageError::DeadlineExceeded,
                "{workers} workers"
            );
        }
    }

    /// A 20 000-row transposed store on a pool far smaller than one
    /// column, so a scan really touches the device.
    fn scan_fixture() -> (sdbms_storage::StorageEnv, sdbms_columnar::TransposedFile) {
        use sdbms_data::{Attribute, DataSet, DataType, Schema};
        let schema = Schema::new(vec![Attribute::measured("X", DataType::Float)]).unwrap();
        let rows = (0..20_000).map(|i| vec![Value::Float(f64::from(i) * 0.5)]);
        let ds = DataSet::from_rows("scan", schema, rows.collect()).unwrap();
        let env = sdbms_storage::StorageEnv::new(8);
        let store = sdbms_columnar::TransposedFile::from_dataset(env.pool.clone(), &ds).unwrap();
        (env, store)
    }

    #[test]
    fn fanned_out_scans_keep_the_callers_io_scopes() {
        use sdbms_storage::{IoScope, IoStats};
        use std::sync::Arc;
        let (env, store) = scan_fixture();
        let touches = |s: sdbms_storage::IoSnapshot| s.page_reads + s.pool_hits;
        for workers in [1, 4] {
            let cfg = ExecConfig::with_workers(workers);
            // Nested scopes: the outer one must see the inner scans'
            // worker-thread charges too.
            let outer = IoScope::enter(Arc::new(IoStats::default()));
            let mut total = 0;
            for profile in [false, true] {
                let inner = IoScope::enter(Arc::new(IoStats::default()));
                let before = env.tracker.snapshot();
                if profile {
                    profile_table_column(&store, "X", &cfg).unwrap();
                } else {
                    read_table_column(&store, "X", &cfg).unwrap();
                }
                let global = touches(env.tracker.snapshot().since(&before));
                assert!(global > 0);
                assert_eq!(
                    touches(inner.stats().snapshot()),
                    global,
                    "{workers} workers, profile={profile}"
                );
                total += global;
            }
            assert_eq!(
                touches(outer.stats().snapshot()),
                total,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn serial_path_reports_first_error_in_order() {
        let r: Result<Vec<()>, usize> = scan_morsels(4096, &ExecConfig::serial(), |m| Err(m.index));
        assert_eq!(r.unwrap_err(), 0);
    }

    #[test]
    fn empty_scan_is_empty() {
        let p = profile_values(&[], &ExecConfig::with_workers(4));
        assert_eq!(p, ColumnProfile::default());
        assert_eq!(ExecConfig::with_workers(4).morsel_count(0), 0);
    }

    #[test]
    fn workers_env_parsing() {
        assert_eq!(parse_workers("4"), Some(4));
        assert_eq!(parse_workers(" 2 "), Some(2));
        assert_eq!(parse_workers("0"), None);
        assert_eq!(parse_workers(""), None);
        assert_eq!(parse_workers("many"), None);
        assert!(ExecConfig::with_workers(0).workers >= 1);
        assert!(ExecConfig::from_env().workers >= 1);
    }

    #[test]
    fn morsel_partition_is_worker_independent() {
        let cfg_a = ExecConfig {
            workers: 1,
            morsel_rows: 100,
        };
        let cfg_b = ExecConfig {
            workers: 8,
            morsel_rows: 100,
        };
        assert_eq!(cfg_a.morsel_count(1001), cfg_b.morsel_count(1001));
        assert_eq!(cfg_a.morsel_count(1001), 11);
    }
}
