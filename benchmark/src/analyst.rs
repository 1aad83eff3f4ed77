//! `analyst_session`: one analyst directly on `StatDbms`, working set
//! larger than the buffer pool, exploratory then confirmatory.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sdbms_columnar::TableStore;
use sdbms_core::{AccuracyPolicy, ComputeSource, StatDbms, StatFunction, SummaryValue};
use sdbms_exec::{ColumnProfile, ExecConfig, SegmentPruner};
use sdbms_relational::prune::ZoneMapPruner;
use sdbms_storage::IoSnapshot;
use sdbms_summary::CacheStats;
use sdbms_testkit::SplitMix64;

use crate::config::Config;
use crate::fixture::{agrees, Model, VIEW};
use crate::record::{Pacer, PassLog, Sample};
use crate::schedule::{fnv1a, AnalystOp, AnalystPlan, FilterSpec, FNV_OFFSET};
use crate::trace::{CounterDelta, Span, Tracer, ROOT};

/// Sample classes.
pub const HIT: u8 = 0;
pub const MISS: u8 = 1;
pub const PROFILE: u8 = 2;
pub const FILTER: u8 = 3;

pub const CLASS_NAMES: [&str; 4] = [
    "core.compute_hit",
    "core.compute_miss",
    "exec.profile_table_column",
    "relational.filter_table_rows",
];

/// One scan-class result kept for the oracle (a seeded 1-in-8 sample;
/// every distinct Summary-DB hit is kept).
pub enum Check {
    Value(&'static str, StatFunction, SummaryValue),
    /// Filter index, then the count and hash of the rows it returned
    /// (a 100%-selective result is 100 000 row numbers; keeping those
    /// made the run's peak memory depend on which calls were sampled).
    Filter(usize, usize, u64),
    Profile(&'static str, usize, usize),
}

#[derive(Default)]
pub struct AnalystPass {
    pub log: PassLog,
    pub attempted: u64,
    pub errored: u64,
    /// Replies that differed from an earlier reply to the same call.
    pub inconsistent: u64,
    /// `compute` calls the Summary DB answered.
    pub summary_hits: u64,
    /// First-touch functions this pass used up.
    pub misses: u64,
    pub checks: Vec<Check>,
    pub io: IoSnapshot,
    pub cache_before: CacheStats,
    pub cache_after: CacheStats,
}

type Store = Arc<dyn TableStore + Send + Sync>;

/// Run the session for about `seconds` of measured time.
pub fn run_pass(
    dbms: &mut StatDbms,
    plan: &AnalystPlan,
    cfg: &Config,
    seed: u64,
    first_miss: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> AnalystPass {
    let origin = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.rebase(origin);
    }
    let now = || origin.elapsed().as_nanos() as u64;
    let mut pass = AnalystPass::default();
    let Ok(store) = dbms.view(VIEW).map(|v| Arc::clone(&v.store)) else {
        pass.attempted = 1;
        pass.errored = 1;
        return pass;
    };
    let exec = dbms.exec_config();
    let mut keep = SplitMix64::new(seed ^ 0x0C0F_FEE0);
    let mut first_hits: HashMap<(&'static str, String), SummaryValue> = HashMap::new();
    let mut samples = Vec::with_capacity((seconds * 20_000.0) as usize + 4_096);
    let mut pacer = Pacer::new(now(), cfg.window_ops, cfg.warmup_windows, seconds);
    let io_before = dbms.io();
    pass.cache_before = dbms.cache_stats(VIEW).unwrap_or_default();
    for (request, op) in plan.stream(seed, first_miss).enumerate() {
        pass.attempted += 1;
        let sampled = tracer.as_mut().is_some_and(|t| t.sample());
        let before = sampled.then(|| (dbms.io(), dbms.cache_stats(VIEW).unwrap_or_default()));
        let start = now();
        let (class, ok) = match &op {
            AnalystOp::Hit(attr, f) | AnalystOp::Miss(attr, f) => {
                let hit = matches!(op, AnalystOp::Hit(..));
                pass.misses += u64::from(!hit);
                let result = dbms.compute(VIEW, attr, f, AccuracyPolicy::Exact);
                let end = now();
                samples.push(Sample::new(start, end, if hit { HIT } else { MISS }));
                match result {
                    Ok((value, source)) => {
                        if source == ComputeSource::Cache {
                            pass.summary_hits += 1;
                        }
                        if hit {
                            match first_hits.entry((*attr, f.name())) {
                                Entry::Occupied(seen) if *seen.get() != value => {
                                    pass.inconsistent += 1;
                                }
                                Entry::Occupied(_) => {}
                                Entry::Vacant(slot) => {
                                    slot.insert(value.clone());
                                    pass.checks.push(Check::Value(attr, f.clone(), value));
                                }
                            }
                        } else if keep.below(8) == 0 {
                            pass.checks.push(Check::Value(attr, f.clone(), value));
                        }
                        (if hit { HIT } else { MISS }, true)
                    }
                    Err(_) => (MISS, false),
                }
            }
            AnalystOp::Profile(attr) => {
                let result = sdbms_exec::profile_table_column(&*store, attr, &exec);
                samples.push(Sample::new(start, now(), PROFILE));
                match result {
                    Ok(p) => {
                        if keep.below(8) == 0 {
                            pass.checks
                                .push(Check::Profile(attr, p.rows, p.numbers.len()));
                        }
                        (PROFILE, true)
                    }
                    Err(_) => (PROFILE, false),
                }
            }
            AnalystOp::Filter(i) => {
                let predicate = plan.filters[*i].predicate();
                let start = now();
                let result = sdbms_relational::filter_table_rows(&*store, &predicate, &exec);
                samples.push(Sample::new(start, now(), FILTER));
                match result {
                    Ok(rows) => {
                        if keep.below(8) == 0 {
                            pass.checks
                                .push(Check::Filter(*i, rows.len(), hash_rows(&rows)));
                        }
                        (FILTER, true)
                    }
                    Err(_) => (FILTER, false),
                }
            }
        };
        if !ok {
            // The sample stays (the analyst waited for the error) but
            // the call counts as failed.
            pass.errored += 1;
        }
        if let (Some(t), Some((io, cache)), Some(last)) =
            (tracer.as_deref_mut(), before, samples.last())
        {
            let request = request as u32;
            t.push(Span {
                name: CLASS_NAMES[class as usize],
                start_ns: last.start_ns(),
                end_ns: last.end_ns,
                parent: ROOT,
                request,
            });
            let after = dbms.cache_stats(VIEW).unwrap_or_default();
            t.counters.push(counter_delta(
                request,
                &dbms.io().since(&io),
                &cache,
                &after,
            ));
            replay(t, dbms, &store, &exec, plan, &op, request);
        }
        if pacer.tick(now) == Some(true) {
            break;
        }
    }
    pass.io = dbms.io().since(&io_before);
    pass.cache_after = dbms.cache_stats(VIEW).unwrap_or_default();
    pass.log = PassLog {
        samples: vec![samples],
        boundaries: pacer.into_boundaries(),
    };
    pass
}

fn hash_rows(rows: &[usize]) -> u64 {
    rows.iter()
        .fold(FNV_OFFSET, |h, r| fnv1a(h, &(*r as u64).to_le_bytes()))
}

pub fn counter_delta(
    request: u32,
    io: &IoSnapshot,
    before: &CacheStats,
    after: &CacheStats,
) -> CounterDelta {
    CounterDelta {
        request,
        values: vec![
            ("page_reads", io.page_reads),
            ("page_writes", io.page_writes),
            ("seeks", io.seeks),
            ("pool_hits", io.pool_hits),
            ("summary_hits", after.hits - before.hits),
            ("summary_misses", after.misses - before.misses),
            (
                "summary_incremental",
                after.incremental_updates - before.incremental_updates,
            ),
            (
                "summary_invalidations",
                after.invalidations - before.invalidations,
            ),
            ("summary_recomputes", after.recomputes - before.recomputes),
        ],
    }
}

/// Re-execute a call's read path step by step on the same version.
fn replay(
    t: &mut Tracer,
    dbms: &StatDbms,
    store: &Store,
    exec: &ExecConfig,
    plan: &AnalystPlan,
    op: &AnalystOp,
    request: u32,
) {
    let parent = t.open("bench.replay", ROOT, request);
    match op {
        AnalystOp::Hit(attr, f) => {
            if let Ok(view) = dbms.view(VIEW) {
                let _ = t.step("summary.lookup_fresh", parent, request, || {
                    view.summary.lookup_fresh(attr, f)
                });
            }
        }
        AnalystOp::Miss(attr, f) => {
            let col = t.step("exec.read_table_column", parent, request, || {
                sdbms_exec::read_table_column(&**store, attr, exec)
            });
            if let Ok(col) = col {
                let _ = t.step("stats.compute", parent, request, || f.compute(&col));
            }
        }
        AnalystOp::Profile(attr) => replay_profile(t, store, exec, attr, parent, request),
        AnalystOp::Filter(i) => replay_filter(t, store, exec, &plan.filters[*i], parent, request),
    }
    t.close(parent);
}

fn morsels(rows: usize, exec: &ExecConfig) -> impl Iterator<Item = (usize, usize)> {
    let step = exec.morsel_rows.max(1);
    (0..rows)
        .step_by(step)
        .map(move |start| (start, step.min(rows - start)))
}

pub fn replay_profile(
    t: &mut Tracer,
    store: &Store,
    exec: &ExecConfig,
    attr: &str,
    parent: u32,
    request: u32,
) {
    let mut profile = ColumnProfile::default();
    for (start, len) in morsels(store.len(), exec) {
        let batch = t.step("columnar.read_column_batch", parent, request, || {
            store.read_column_batch(attr, start, len)
        });
        if let Ok(batch) = batch {
            t.step("exec.add_batch", parent, request, || {
                sdbms_exec::kernels::add_batch(&mut profile, &batch);
            });
        }
    }
    std::hint::black_box(profile);
}

pub fn replay_filter(
    t: &mut Tracer,
    store: &Store,
    exec: &ExecConfig,
    filter: &FilterSpec,
    parent: u32,
    request: u32,
) {
    let predicate = filter.predicate();
    let kernel = filter.kernel();
    let pruner = ZoneMapPruner::new(&**store, &predicate);
    let mut hits = Vec::new();
    for (start, len) in morsels(store.len(), exec) {
        let may = t.step("relational.zone_prune", parent, request, || {
            pruner.may_match(start, len)
        });
        if !may {
            continue;
        }
        let batch = t.step("columnar.read_column_batch", parent, request, || {
            store.read_column_batch(filter.attr, start, len)
        });
        if let Ok(batch) = batch {
            t.step("exec.kernel_eval", parent, request, || {
                let sel = kernel.eval(std::slice::from_ref(&batch), len);
                sdbms_exec::kernels::selection_to_indices(&sel, start, &mut hits);
            });
        }
    }
    std::hint::black_box(hits);
}

/// Verify the kept results against the reference model: `compute`
/// values against a from-scratch recompute (the repo's 1e-9 relative
/// tolerance for cached-versus-recomputed values), filter results
/// against row-by-row predicate evaluation, profile counts against the
/// column. Returns the number of wrong results.
pub fn check(plan: &AnalystPlan, model: &Model, pass: &AnalystPass) -> u64 {
    let mut columns: HashMap<&str, Vec<sdbms_data::Value>> = HashMap::new();
    let mut wrong = 0u64;
    for check in &pass.checks {
        let ok = match check {
            Check::Value(attr, f, got) => {
                let col = columns.entry(attr).or_insert_with(|| model.column(attr));
                agrees(f, got, col)
            }
            Check::Filter(i, len, hash) => {
                let want = model.filter(&plan.filters[*i].predicate());
                want.len() == *len && hash_rows(&want) == *hash
            }
            Check::Profile(attr, rows, numeric) => {
                let col = columns.entry(attr).or_insert_with(|| model.column(attr));
                col.len() == *rows
                    && col.iter().filter(|v| v.as_f64().is_some()).count() == *numeric
            }
        };
        if !ok {
            wrong += 1;
        }
    }
    wrong
}
