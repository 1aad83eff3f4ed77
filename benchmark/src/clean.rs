//! `clean_update`: one analyst cleaning a view under
//! `DurabilityPolicy::CrashConsistent` — the paper's rare updates that
//! the Summary Database has to survive.

use std::time::Instant;

use sdbms_core::{AccuracyPolicy, BatchOp, CoreError, Expr, StatDbms, StatFunction, SummaryValue};
use sdbms_data::DataSet;
use sdbms_storage::IoSnapshot;
use sdbms_summary::CacheStats;
use sdbms_testkit::SplitMix64;

use crate::analyst::counter_delta;
use crate::config::Config;
use crate::fixture::{agrees, Model, NUMERIC_ATTRS, VIEW};
use crate::record::{Pacer, PassLog, Sample};
use crate::schedule::{narrow_predicate, CleanOp, CleanStream};
use crate::trace::{Span, Tracer, ROOT};

/// Sample classes.
pub const READ: u8 = 0;
pub const NARROW: u8 = 1;
pub const BATCH: u8 = 2;
pub const BROAD: u8 = 3;
pub const SUSPICIOUS: u8 = 4;
pub const CHECKPOINT: u8 = 5;

pub const CLASS_NAMES: [&str; 6] = [
    "core.compute",
    "core.update_where_narrow",
    "core.commit_batch",
    "core.update_where_broad",
    "core.suspicious_rows",
    "management.checkpoint",
];

pub fn is_write(class: u8) -> bool {
    matches!(class, NARROW | BATCH | BROAD)
}

#[derive(Default)]
pub struct CleanPass {
    pub log: PassLog,
    pub attempted: u64,
    pub errored: u64,
    pub writes: u64,
    /// Reads after a write that the Summary DB answered from cache.
    pub reads_from_cache: u64,
    pub reads: u64,
    /// Every operation issued, in order, for the model replay.
    pub ops: Vec<CleanOp>,
    /// A seeded sample of results, by operation index, for the oracle.
    pub kept_reads: Vec<(usize, SummaryValue)>,
    pub kept_suspicious: Vec<(usize, Vec<usize>)>,
    pub io: IoSnapshot,
    pub cache_before: CacheStats,
    pub cache_after: CacheStats,
}

fn execute(dbms: &mut StatDbms, op: &CleanOp) -> Result<Option<Outcome>, CoreError> {
    Ok(match op {
        CleanOp::Suspicious(attr) => Some(Outcome::Rows(dbms.suspicious_rows(VIEW, attr)?)),
        CleanOp::Narrow {
            first,
            n,
            attr,
            value,
        } => {
            dbms.update_where(
                VIEW,
                &narrow_predicate(*first, *n),
                &[(attr, Expr::Literal(value.clone()))],
            )?;
            None
        }
        CleanOp::Batch { attr, cells } => {
            let batch = dbms.begin_batch(VIEW)?;
            for (row, value) in cells {
                dbms.batch_stage(
                    batch,
                    BatchOp::SetCell {
                        row: *row,
                        attribute: (*attr).to_string(),
                        value: value.clone(),
                    },
                )?;
            }
            dbms.commit_batch(batch)?;
            None
        }
        CleanOp::Broad(update) => {
            update.apply(dbms, VIEW)?;
            None
        }
        CleanOp::Read(attr, f) => {
            let (value, source) = dbms.compute(VIEW, attr, f, AccuracyPolicy::Exact)?;
            Some(Outcome::Value(
                value,
                source == sdbms_core::ComputeSource::Cache,
            ))
        }
        CleanOp::Checkpoint(label) => {
            dbms.checkpoint(VIEW, label)?;
            None
        }
    })
}

enum Outcome {
    Rows(Vec<usize>),
    Value(SummaryValue, bool),
}

fn class_of(op: &CleanOp) -> u8 {
    match op {
        CleanOp::Read(..) => READ,
        CleanOp::Narrow { .. } => NARROW,
        CleanOp::Batch { .. } => BATCH,
        CleanOp::Broad(_) => BROAD,
        CleanOp::Suspicious(_) => SUSPICIOUS,
        CleanOp::Checkpoint(_) => CHECKPOINT,
    }
}

/// Run the cleaning session for about `seconds` of measured time.
pub fn run_pass(
    dbms: &mut StatDbms,
    stream: CleanStream,
    cfg: &Config,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> CleanPass {
    let origin = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.rebase(origin);
    }
    let now = || origin.elapsed().as_nanos() as u64;
    let mut pass = CleanPass::default();
    let mut keep = SplitMix64::new(seed ^ 0x0C1E_A4ED);
    let mut samples = Vec::with_capacity(16_384);
    let mut pacer = Pacer::new(now(), cfg.window_ops, cfg.warmup_windows, seconds);
    let io_before = dbms.io();
    pass.cache_before = dbms.cache_stats(VIEW).unwrap_or_default();
    for (index, op) in stream.enumerate() {
        pass.attempted += 1;
        let class = class_of(&op);
        let sampled = tracer.as_mut().is_some_and(|t| t.sample());
        let before = sampled.then(|| (dbms.io(), dbms.cache_stats(VIEW).unwrap_or_default()));
        let start = now();
        let result = execute(dbms, &op);
        let end = now();
        samples.push(Sample::new(start, end, class));
        let mut recomputed = false;
        match result {
            Ok(outcome) => {
                if is_write(class) {
                    pass.writes += 1;
                }
                match outcome {
                    Some(Outcome::Value(value, cached)) => {
                        recomputed = !cached;
                        pass.reads += 1;
                        pass.reads_from_cache += u64::from(cached);
                        if keep.below(16) == 0 {
                            pass.kept_reads.push((index, value));
                        }
                    }
                    Some(Outcome::Rows(rows)) if keep.below(4) == 0 => {
                        pass.kept_suspicious.push((index, rows));
                    }
                    Some(Outcome::Rows(_)) | None => {}
                }
            }
            Err(_) => pass.errored += 1,
        }
        if let (Some(t), Some((io, cache))) = (tracer.as_deref_mut(), before) {
            let request = index as u32;
            t.push(Span {
                name: CLASS_NAMES[class as usize],
                start_ns: start,
                end_ns: end,
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
            if let CleanOp::Read(attr, f) = &op {
                replay_read(t, dbms, attr, f, recomputed, request);
            }
        }
        pass.ops.push(op);
        // Checkpoints ride along: windows count the cycle's own calls
        // so every window holds whole cycles.
        if class != CHECKPOINT && pacer.tick(now) == Some(true) {
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

/// Re-execute a read's path on the same version: the Summary-DB lookup
/// when the cache answered, the column read and the statistic when the
/// entry had been invalidated and was recomputed.
fn replay_read(
    t: &mut Tracer,
    dbms: &StatDbms,
    attr: &str,
    f: &StatFunction,
    recomputed: bool,
    request: u32,
) {
    let Ok(view) = dbms.view(VIEW) else { return };
    let parent = t.open("bench.replay", ROOT, request);
    if recomputed {
        let exec = dbms.exec_config();
        let col = t.step("exec.read_table_column", parent, request, || {
            sdbms_exec::read_table_column(&*view.store, attr, &exec)
        });
        if let Ok(col) = col {
            let _ = t.step("stats.compute", parent, request, || f.compute(&col));
        }
    } else {
        let _ = t.step("summary.lookup_fresh", parent, request, || {
            view.summary.lookup_fresh(attr, f)
        });
    }
    t.close(parent);
}

/// The reference model of the cleaned view plus what a rollback to the
/// most recent checkpoint restores.
pub struct CleanModel {
    pub model: Model,
    checkpoint: Option<(String, DataSet)>,
}

impl CleanModel {
    pub fn new(model: Model) -> CleanModel {
        CleanModel {
            model,
            checkpoint: None,
        }
    }

    /// Replay a pass's operations on the model, checking the kept
    /// results where they occurred. Returns the number of wrong ones.
    pub fn replay(&mut self, pass: &CleanPass) -> u64 {
        let mut wrong = 0u64;
        let mut reads = pass.kept_reads.iter().peekable();
        let mut suspicious = pass.kept_suspicious.iter().peekable();
        for (index, op) in pass.ops.iter().enumerate() {
            match op {
                CleanOp::Narrow {
                    first,
                    n,
                    attr,
                    value,
                } => self.model.update_where(
                    &narrow_predicate(*first, *n),
                    &[(attr, Expr::Literal(value.clone()))],
                ),
                CleanOp::Batch { attr, cells } => {
                    for (row, value) in cells {
                        self.model.set_cell(*row, attr, value.clone());
                    }
                }
                CleanOp::Broad(update) => self
                    .model
                    .update_where(&update.predicate(), &update.assignments()),
                CleanOp::Checkpoint(label) => {
                    self.checkpoint = Some((label.clone(), self.model.data.clone()));
                }
                CleanOp::Read(attr, f) => {
                    if let Some((_, got)) = reads.next_if(|(i, _)| *i == index) {
                        if !self.fresh(attr, f, got) {
                            eprintln!(
                                "clean_update: call {index}: {f}({attr}) served {got}, stale"
                            );
                            wrong += 1;
                        }
                    }
                }
                CleanOp::Suspicious(attr) => {
                    if let Some((_, got)) = suspicious.next_if(|(i, _)| *i == index) {
                        if self.model.data.suspicious_rows(attr).ok().as_ref() != Some(got) {
                            eprintln!(
                                "clean_update: call {index}: suspicious_rows({attr}) differs"
                            );
                            wrong += 1;
                        }
                    }
                }
            }
        }
        wrong
    }

    fn fresh(&self, attr: &str, f: &StatFunction, got: &SummaryValue) -> bool {
        agrees(f, got, &self.model.column(attr))
    }
}

/// What closing a `clean_update` run measured and found.
#[derive(Debug, Default, Clone, Copy)]
pub struct CloseOut {
    /// Checks made and checks failed (columns, standing summaries).
    pub checked: u64,
    pub wrong: u64,
    pub rollback_us: f64,
    pub recover_s: f64,
}

/// Every stored column equals the model's, and every standing summary
/// the Summary DB serves equals a recompute from the stored column.
fn verify(dbms: &mut StatDbms, model: &Model, out: &mut CloseOut) {
    let names: Vec<String> = model
        .data
        .schema()
        .names()
        .into_iter()
        .map(str::to_string)
        .collect();
    for attr in &names {
        out.checked += 1;
        match dbms.column(VIEW, attr) {
            Ok(col) if col == model.column(attr) => {}
            _ => {
                eprintln!("clean_update: stored column {attr} differs from the model");
                out.wrong += 1;
            }
        }
    }
    for attr in NUMERIC_ATTRS {
        let Ok(col) = dbms.column(VIEW, attr) else {
            out.wrong += 1;
            continue;
        };
        for f in sdbms_summary::standing_summary_functions() {
            out.checked += 1;
            let ok = dbms
                .compute(VIEW, attr, &f, AccuracyPolicy::Exact)
                .is_ok_and(|(got, _)| agrees(&f, &got, &col));
            if !ok {
                eprintln!("clean_update: standing summary {f}({attr}) differs from a recompute");
                out.wrong += 1;
            }
        }
    }
}

/// Close a run, outside the timed region: roll back to the last
/// checkpoint and check the whole view against the model; then make
/// one last acknowledged write, leave one write unacknowledged (a
/// staged, never committed batch), crash, discard every unflushed
/// frame, restart and recover, and check that every acknowledged write
/// is visible and the unacknowledged one is not.
///
/// The crash follows an acknowledged write directly. The engine's
/// simulated crash keeps its in-memory file state, so cache entries a
/// *read* inserted after the last commit flush would come back as
/// zeroed pages the heap file still lists — a state a real restart
/// cannot reach and the engine does not handle.
pub fn close_out(dbms: &mut StatDbms, clean: &mut CleanModel) -> CloseOut {
    let mut out = CloseOut::default();
    if let Some((label, data)) = clean.checkpoint.take() {
        let start = Instant::now();
        let rolled = dbms.rollback_to_checkpoint(VIEW, &label);
        out.rollback_us = start.elapsed().as_secs_f64() * 1e6;
        out.checked += 1;
        if rolled.is_err() {
            out.wrong += 1;
        }
        clean.model.data = data;
    }
    verify(dbms, &clean.model, &mut out);

    let last = (narrow_predicate(0, 1), [("HOURS_WORKED", Expr::lit(33i64))]);
    out.checked += 1;
    if dbms.update_where(VIEW, &last.0, &last.1).is_err() {
        out.wrong += 1;
    }
    clean.model.update_where(&last.0, &last.1);
    let staged = dbms.begin_batch(VIEW).and_then(|batch| {
        dbms.batch_stage(
            batch,
            BatchOp::SetCell {
                row: 0,
                attribute: "INCOME".to_string(),
                value: sdbms_data::Value::Float(-1.0),
            },
        )?;
        Ok(batch)
    });
    dbms.env().injector.crash_now();
    let start = Instant::now();
    // Only what reached the disk before the crash may survive it.
    let discarded = dbms.env().pool.discard_frames();
    let recovered = dbms.recover();
    out.recover_s = start.elapsed().as_secs_f64();
    out.checked += 1;
    if staged.is_err() || discarded.is_err() || recovered.is_err() {
        out.wrong += 1;
    }
    if let Ok(batch) = staged {
        let _ = dbms.abort_batch(batch);
    }
    verify(dbms, &clean.model, &mut out);
    out
}
