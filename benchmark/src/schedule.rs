//! Seeded operation schedules.
//!
//! A schedule is a pure function of the seed and the generated data:
//! it never looks at what the engine answered. That is what lets the
//! oracle replay the same operations on the reference model after the
//! timed phase, and what the determinism tests pin (same seed, same
//! operation list; another seed, another list).

use std::collections::VecDeque;

use sdbms_core::{BatchOp, CmpOp, Expr, Predicate, StatFunction};
use sdbms_data::Value;
use sdbms_exec::kernels::{KernelCmp, KernelPredicate};
use sdbms_serve::Query;
use sdbms_testkit::{seeded_income_update, IncomeUpdate, SplitMix64, Zipfian};

use crate::config::{Config, Workload};
use crate::fixture::{Model, NUMERIC_ATTRS};

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        state ^= u64::from(*b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn analyst_rng(seed: u64, analyst: usize) -> SplitMix64 {
    SplitMix64::new(seed ^ (analyst as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F))
}

// ---- serve_hot / serve_mixed ---------------------------------------------

/// One narrow edit: `INCOME := value WHERE PERSON_ID = row`.
#[derive(Debug, Clone, PartialEq)]
pub struct Edit {
    pub row: usize,
    pub value: f64,
}

impl Edit {
    pub fn predicate(&self) -> Predicate {
        Predicate::cmp(
            Expr::col("PERSON_ID"),
            CmpOp::Eq,
            Expr::lit(self.row as i64),
        )
    }

    pub fn batch_op(&self) -> BatchOp {
        BatchOp::UpdateWhere {
            predicate: self.predicate(),
            assignments: vec![("INCOME".to_string(), Expr::lit(self.value))],
        }
    }

    pub fn apply(&self, model: &mut Model) {
        model.set_cell(self.row, "INCOME", Value::Float(self.value));
    }
}

/// One request of a serving analyst.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeOp {
    /// Index into [`ServePlan::universe`].
    Query(usize),
    Commit(Edit),
}

/// The query universe and picker of a serve workload.
pub struct ServePlan {
    pub universe: Vec<Query>,
    zipf: Zipfian,
    commit_every: usize,
    rows: usize,
}

/// The functions both serve workloads ask for.
fn base_functions() -> Vec<StatFunction> {
    vec![
        StatFunction::Count,
        StatFunction::Mean,
        StatFunction::Min,
        StatFunction::Max,
        StatFunction::Median,
        StatFunction::Quartiles,
        StatFunction::StdDev,
    ]
}

impl ServePlan {
    pub fn new(cfg: &Config) -> ServePlan {
        let mut functions = base_functions();
        if cfg.workload == Workload::ServeMixed {
            functions.extend((1..20).map(|i| StatFunction::Quantile(i * 50)));
            functions.extend((1..=10).map(|i| StatFunction::Histogram(i * 5)));
        }
        // Function-major, so the hot ranks touch every attribute.
        let summaries: Vec<Query> = functions
            .iter()
            .flat_map(|f| NUMERIC_ATTRS.iter().map(|a| Query::summary(a, f.clone())))
            .collect();
        let stride = (cfg.rows / cfg.universe_rows.max(1)).max(1);
        let rows: Vec<Query> = (0..cfg.universe_rows)
            .map(|i| Query::Row {
                index: (i * stride) % cfg.rows,
            })
            .collect();
        // Rank order: summaries and row reads alternate while both
        // last, so hits and misses of both kinds share the hot ranks.
        let mut universe = Vec::with_capacity(summaries.len() + rows.len());
        let (mut s, mut r) = (summaries.into_iter(), rows.into_iter());
        loop {
            match (s.next(), r.next()) {
                (None, None) => break,
                (a, b) => universe.extend(a.into_iter().chain(b)),
            }
        }
        ServePlan {
            zipf: Zipfian::new(universe.len(), cfg.zipf_exponent),
            universe,
            commit_every: cfg.commit_every,
            rows: cfg.rows,
        }
    }

    pub fn stream(&self, seed: u64, analyst: usize) -> ServeStream<'_> {
        ServeStream {
            plan: self,
            rng: analyst_rng(seed, analyst),
            writer: analyst == 0 && self.commit_every > 0,
            step: 0,
        }
    }
}

/// One analyst's endless request stream.
pub struct ServeStream<'a> {
    plan: &'a ServePlan,
    rng: SplitMix64,
    writer: bool,
    step: usize,
}

impl Iterator for ServeStream<'_> {
    type Item = ServeOp;

    fn next(&mut self) -> Option<ServeOp> {
        let step = self.step;
        self.step += 1;
        let every = self.plan.commit_every;
        if self.writer && step % every == every - 1 {
            let row = self.rng.below(self.plan.rows as u64) as usize;
            let value = (self.rng.unit() * 9_000_000.0).round() / 100.0;
            return Some(ServeOp::Commit(Edit { row, value }));
        }
        Some(ServeOp::Query(self.plan.zipf.sample(&mut self.rng)))
    }
}

// ---- analyst_session -------------------------------------------------------

/// One call of the direct analyst.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalystOp {
    /// A repeated `compute` the Summary DB answers.
    Hit(&'static str, StatFunction),
    /// A first-touch `compute`: column read plus statistics.
    Miss(&'static str, StatFunction),
    /// `profile_table_column` on the named attribute.
    Profile(&'static str),
    /// `filter_table_rows` with [`AnalystPlan::filters`]`[i]`.
    Filter(usize),
}

/// Scan-class calls in the order the session issues them: 14 first-
/// touch computes, 6 profiles (RLE, raw and low-cardinality columns)
/// and 10 filters (5 selectivities × clustered/unclustered).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scan {
    Miss,
    Profile(&'static str),
    Filter(usize),
}

const SCAN_CYCLE: [Scan; 30] = {
    use Scan::{Filter as F, Miss as M, Profile as P};
    [
        M,
        F(0),
        P("AGE"),
        M,
        F(1),
        M,
        M,
        F(2),
        P("INCOME"),
        M,
        F(3),
        M,
        M,
        F(4),
        P("SEX"),
        M,
        F(5),
        M,
        M,
        F(6),
        P("AGE"),
        M,
        F(7),
        M,
        F(8),
        P("INCOME"),
        M,
        F(9),
        P("SEX"),
        M,
    ]
};

/// Steps coprime to 999, so `1 + j*step mod 999` visits every
/// per-mille quantile once before repeating.
const QUANTILE_STEPS: [u64; 8] = [7, 11, 13, 17, 19, 23, 29, 31];

/// A one-column comparison, in both forms the layers take it.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSpec {
    pub attr: &'static str,
    pub op: CmpOp,
    pub lit: Value,
}

impl FilterSpec {
    pub fn predicate(&self) -> Predicate {
        Predicate::cmp(
            Expr::col(self.attr),
            self.op,
            Expr::Literal(self.lit.clone()),
        )
    }

    /// The same comparison as the executor's batch kernel sees it,
    /// with the column in slot 0.
    pub fn kernel(&self) -> KernelPredicate {
        KernelPredicate::Cmp {
            col: 0,
            op: match self.op {
                CmpOp::Eq => KernelCmp::Eq,
                CmpOp::Ne => KernelCmp::Ne,
                CmpOp::Lt => KernelCmp::Lt,
                CmpOp::Le => KernelCmp::Le,
                CmpOp::Gt => KernelCmp::Gt,
                CmpOp::Ge => KernelCmp::Ge,
            },
            lit: self.lit.clone(),
        }
    }
}

pub struct AnalystPlan {
    hits: Vec<(&'static str, StatFunction)>,
    zipf: Zipfian,
    quantile_step: u64,
    /// `[sel0, sel1, sel10, sel50, sel100]` unclustered (INCOME), then
    /// the same five clustered (PERSON_ID).
    pub filters: Vec<FilterSpec>,
}

impl AnalystPlan {
    pub fn new(cfg: &Config, model: &Model, seed: u64) -> AnalystPlan {
        let hits: Vec<(&'static str, StatFunction)> = sdbms_summary::standing_summary_functions()
            .into_iter()
            .flat_map(|f| NUMERIC_ATTRS.iter().map(move |a| (*a, f.clone())))
            .collect();
        let mut incomes: Vec<f64> = model
            .column("INCOME")
            .iter()
            .filter_map(Value::as_f64)
            .collect();
        incomes.sort_by(f64::total_cmp);
        let above = |share: f64| {
            let at = ((1.0 - share) * incomes.len() as f64) as usize;
            incomes
                .get(at.min(incomes.len().saturating_sub(1)))
                .copied()
                .unwrap_or(0.0)
        };
        let income = |op, x: f64| FilterSpec {
            attr: "INCOME",
            op,
            lit: Value::Float(x),
        };
        let person = |op, k: usize| FilterSpec {
            attr: "PERSON_ID",
            op,
            lit: Value::Int(k as i64),
        };
        let filters = vec![
            // Incomes carry two decimals, so this matches nothing, yet
            // lies inside every segment's range: nothing can be pruned.
            income(CmpOp::Eq, 12_345.678),
            income(CmpOp::Gt, above(0.01)),
            income(CmpOp::Gt, above(0.10)),
            income(CmpOp::Gt, above(0.50)),
            income(CmpOp::Ge, 0.0),
            person(CmpOp::Lt, 0),
            person(CmpOp::Lt, cfg.rows / 100),
            person(CmpOp::Lt, cfg.rows / 10),
            person(CmpOp::Lt, cfg.rows / 2),
            person(CmpOp::Ge, 0),
        ];
        AnalystPlan {
            zipf: Zipfian::new(hits.len(), cfg.zipf_exponent),
            hits,
            quantile_step: QUANTILE_STEPS[(seed % QUANTILE_STEPS.len() as u64) as usize],
            filters,
        }
    }

    /// The session's calls under `seed`. `first_miss` is how many
    /// first-touch functions earlier passes on the same engine already
    /// used up; this pass continues after them.
    pub fn stream(&self, seed: u64, first_miss: u64) -> AnalystStream<'_> {
        AnalystStream {
            plan: self,
            rng: analyst_rng(seed, 0),
            op: 0,
            scans: 0,
            misses: first_miss,
        }
    }
}

pub struct AnalystStream<'a> {
    plan: &'a AnalystPlan,
    rng: SplitMix64,
    op: usize,
    scans: usize,
    misses: u64,
}

impl AnalystStream<'_> {
    /// The `k`-th function nobody has asked for yet.
    fn first_touch(&self, k: u64) -> (&'static str, StatFunction) {
        let attr = NUMERIC_ATTRS[(k % 4) as usize];
        let j = k / 4;
        let function = if j < 999 {
            StatFunction::Quantile(1 + ((j * self.plan.quantile_step) % 999) as u16)
        } else {
            let j = j - 999;
            StatFunction::TrimmedMean(1 + (j % 400) as u16, 600 + ((j / 400) % 399) as u16)
        };
        (attr, function)
    }
}

impl Iterator for AnalystStream<'_> {
    type Item = AnalystOp;

    fn next(&mut self) -> Option<AnalystOp> {
        let op = self.op;
        self.op += 1;
        // Three calls in ten are scan-class: 70% Summary-DB hits.
        if !matches!(op % 10, 3 | 6 | 9) {
            let (attr, f) = &self.plan.hits[self.plan.zipf.sample(&mut self.rng)];
            return Some(AnalystOp::Hit(attr, f.clone()));
        }
        let scan = SCAN_CYCLE[self.scans % SCAN_CYCLE.len()];
        self.scans += 1;
        Some(match scan {
            Scan::Miss => {
                let (attr, f) = self.first_touch(self.misses);
                self.misses += 1;
                AnalystOp::Miss(attr, f)
            }
            Scan::Profile(attr) => AnalystOp::Profile(attr),
            Scan::Filter(i) => AnalystOp::Filter(i),
        })
    }
}

// ---- clean_update ----------------------------------------------------------

/// One call of the data-cleaning analyst.
#[derive(Debug, Clone, PartialEq)]
pub enum CleanOp {
    /// `suspicious_rows` on the attribute.
    Suspicious(&'static str),
    /// `update_where`: `attr := value` on `n` consecutive persons.
    Narrow {
        first: usize,
        n: usize,
        attr: &'static str,
        value: Value,
    },
    /// `begin_batch`, five staged `SetCell`s on `attr`, `commit_batch`.
    Batch {
        attr: &'static str,
        cells: Vec<(usize, Value)>,
    },
    /// The broad recode: `INCOME += bump WHERE AGE > threshold`.
    Broad(IncomeUpdate),
    /// `compute` of one standing summary of the touched attribute.
    Read(&'static str, StatFunction),
    /// `checkpoint` with this label.
    Checkpoint(String),
}

/// The row filter of a narrow write: `n` consecutive persons.
pub fn narrow_predicate(first: usize, n: usize) -> Predicate {
    let id = || Expr::col("PERSON_ID");
    Predicate::cmp(id(), CmpOp::Ge, Expr::lit(first as i64)).and(Predicate::cmp(
        id(),
        CmpOp::Lt,
        Expr::lit((first + n) as i64),
    ))
}

/// Writes per cycle: N narrow, B batch, X broad — 70% / 20% / 10%.
const WRITE_CYCLE: [u8; 10] = *b"NNBNNXNNBN";

/// Reads that follow each write.
pub const READS_PER_WRITE: usize = 3;

/// A checkpoint every this many writes.
pub const CHECKPOINT_EVERY: usize = 25;

pub const CLEAN_ATTRS: [&str; 3] = ["AGE", "INCOME", "HOURS_WORKED"];

/// The census generator draws ages around 38.
const MEDIAN_AGE: i64 = 38;

pub struct CleanStream {
    rng: SplitMix64,
    rows: usize,
    /// Rows the reference data flags as implausible AGE values; the
    /// first narrow write of each cycle fixes the next one.
    bad_ages: VecDeque<usize>,
    reads: Vec<StatFunction>,
    queue: VecDeque<CleanOp>,
    cycle: usize,
    writes: usize,
    next_read: usize,
}

impl CleanStream {
    pub fn new(cfg: &Config, model: &Model, seed: u64) -> CleanStream {
        CleanStream {
            rng: analyst_rng(seed, 0),
            rows: cfg.rows,
            bad_ages: model.data.suspicious_rows("AGE").unwrap_or_default().into(),
            reads: sdbms_summary::standing_summary_functions(),
            queue: VecDeque::new(),
            cycle: 0,
            writes: 0,
            next_read: 0,
        }
    }

    fn value_for(&mut self, attr: &str) -> Value {
        match attr {
            "AGE" => Value::Int(18 + self.rng.below(60) as i64),
            "HOURS_WORKED" => Value::Int(self.rng.below(80) as i64),
            _ => Value::Float((self.rng.unit() * 9_000_000.0).round() / 100.0),
        }
    }

    fn refill(&mut self) {
        let check = CLEAN_ATTRS[self.cycle % 2];
        self.cycle += 1;
        self.queue.push_back(CleanOp::Suspicious(check));
        for (i, kind) in WRITE_CYCLE.iter().enumerate() {
            let attr = CLEAN_ATTRS[self.rng.below(CLEAN_ATTRS.len() as u64) as usize];
            let (write, touched) = match kind {
                b'N' => match (i == 0).then(|| self.bad_ages.pop_front()).flatten() {
                    Some(row) => (
                        CleanOp::Narrow {
                            first: row,
                            n: 1,
                            attr: "AGE",
                            value: Value::Int(40),
                        },
                        "AGE",
                    ),
                    None => {
                        let n = 1 + self.rng.below(20) as usize;
                        let first = self.rng.below((self.rows - n) as u64) as usize;
                        let value = self.value_for(attr);
                        (
                            CleanOp::Narrow {
                                first,
                                n,
                                attr,
                                value,
                            },
                            attr,
                        )
                    }
                },
                b'B' => {
                    let cells = (0..5)
                        .map(|_| {
                            let row = self.rng.below(self.rows as u64) as usize;
                            (row, self.value_for(attr))
                        })
                        .collect();
                    (CleanOp::Batch { attr, cells }, attr)
                }
                _ => {
                    // The seeded recode, at the median age so it always
                    // touches about half the rows: the seed varies the
                    // amount, not how much work the statement is.
                    let mut state = self.rng.next_u64();
                    let update = IncomeUpdate {
                        threshold: MEDIAN_AGE,
                        ..seeded_income_update(&mut state)
                    };
                    (CleanOp::Broad(update), "INCOME")
                }
            };
            self.queue.push_back(write);
            self.writes += 1;
            for _ in 0..READS_PER_WRITE {
                let f = self.reads[self.next_read % self.reads.len()].clone();
                self.next_read += 1;
                self.queue.push_back(CleanOp::Read(touched, f));
            }
            if self.writes.is_multiple_of(CHECKPOINT_EVERY) {
                self.queue
                    .push_back(CleanOp::Checkpoint(format!("cp{}", self.writes)));
            }
        }
    }
}

impl Iterator for CleanStream {
    type Item = CleanOp;

    fn next(&mut self) -> Option<CleanOp> {
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop_front()
    }
}

/// Hash of the first `n` operations of every analyst of `cfg`'s
/// workload under `seed` — what "same seed, same inputs" means here.
pub fn schedule_hash(cfg: &Config, model: &Model, seed: u64, n: usize) -> u64 {
    fn fold<T: std::fmt::Debug>(state: u64, ops: impl Iterator<Item = T>, n: usize) -> u64 {
        ops.take(n)
            .fold(state, |h, op| fnv1a(h, format!("{op:?};").as_bytes()))
    }
    match cfg.workload {
        Workload::ServeHot | Workload::ServeMixed => {
            let plan = ServePlan::new(cfg);
            (0..cfg.analysts).fold(FNV_OFFSET, |h, a| fold(h, plan.stream(seed, a), n))
        }
        Workload::AnalystSession => fold(
            FNV_OFFSET,
            AnalystPlan::new(cfg, model, seed).stream(seed, 0),
            n,
        ),
        Workload::CleanUpdate => fold(FNV_OFFSET, CleanStream::new(cfg, model, seed), n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::generate;

    fn small(workload: Workload) -> (Config, Model) {
        let mut cfg = Config::of(workload, true);
        cfg.rows = 2_000;
        cfg.universe_rows = cfg.universe_rows.min(200);
        let model = Model::new(generate(&cfg, 11).unwrap());
        (cfg, model)
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for w in [
            Workload::ServeHot,
            Workload::ServeMixed,
            Workload::AnalystSession,
            Workload::CleanUpdate,
        ] {
            let (cfg, model) = small(w);
            let a = schedule_hash(&cfg, &model, 42, 600);
            assert_eq!(a, schedule_hash(&cfg, &model, 42, 600), "{w:?} repeats");
            assert_ne!(
                a,
                schedule_hash(&cfg, &model, 43, 600),
                "{w:?} depends on the seed"
            );
        }
    }

    #[test]
    fn serve_mixed_writer_commits_on_its_cadence_only() {
        let (cfg, _) = small(Workload::ServeMixed);
        let plan = ServePlan::new(&cfg);
        for (step, op) in plan.stream(5, 0).take(1_000).enumerate() {
            let due = step % cfg.commit_every == cfg.commit_every - 1;
            assert_eq!(matches!(op, ServeOp::Commit(_)), due);
        }
        assert!(plan
            .stream(5, 1)
            .take(1_000)
            .all(|op| matches!(op, ServeOp::Query(_))));
    }

    #[test]
    fn analyst_session_is_seventy_percent_hits_and_never_repeats_a_miss() {
        let (cfg, model) = small(Workload::AnalystSession);
        let plan = AnalystPlan::new(&cfg, &model, 3);
        let ops: Vec<AnalystOp> = plan.stream(3, 0).take(20_000).collect();
        let hits = ops
            .iter()
            .filter(|op| matches!(op, AnalystOp::Hit(..)))
            .count();
        assert_eq!(hits, 14_000);
        let mut seen = std::collections::HashSet::new();
        for op in &ops {
            if let AnalystOp::Miss(attr, f) = op {
                assert!(seen.insert((attr, f.name())), "{f:?}({attr}) asked twice");
            }
        }
        assert_eq!(seen.len(), 2_800);
        // A later pass on the same engine continues where this one ended.
        let next = plan
            .stream(4, 2_800)
            .find(|op| matches!(op, AnalystOp::Miss(..)));
        let Some(AnalystOp::Miss(attr, f)) = next else {
            panic!("no miss in the second pass");
        };
        assert!(
            seen.insert((&attr, f.name())),
            "second pass repeats {f:?}({attr})"
        );
    }

    #[test]
    fn clean_update_cycle_has_the_stated_mix() {
        let (cfg, model) = small(Workload::CleanUpdate);
        let ops: Vec<CleanOp> = CleanStream::new(&cfg, &model, 9)
            .take(41 * 10 + 4)
            .collect();
        let count = |f: fn(&CleanOp) -> bool| ops.iter().filter(|op| f(op)).count();
        assert_eq!(count(|op| matches!(op, CleanOp::Narrow { .. })), 70);
        assert_eq!(count(|op| matches!(op, CleanOp::Batch { .. })), 20);
        assert_eq!(count(|op| matches!(op, CleanOp::Broad(_))), 10);
        assert_eq!(count(|op| matches!(op, CleanOp::Read(..))), 300);
        assert_eq!(count(|op| matches!(op, CleanOp::Checkpoint(_))), 4);
        assert_eq!(count(|op| matches!(op, CleanOp::Suspicious(_))), 10);
    }
}
