//! Vectorized scan kernels over typed column batches.
//!
//! The scalar scan path decodes every cell into a heap `Value`, then
//! dispatches on its variant once per row. The kernels here consume
//! [`ColumnBatch`]es instead — typed slices plus a validity bitmap —
//! so the hot loops are monomorphic over `&[f64]` / `&[i64]` and the
//! compiler can unroll and vectorize them:
//!
//! - [`add_batch`] folds a batch into a [`ColumnProfile`], preferring
//!   the batch's run view (O(runs) frequency/extreme work) and falling
//!   back to tight typed per-row loops.
//! - [`KernelPredicate`] is a comparison tree over batch slots that
//!   evaluates to a *selection bitmap* (`Vec<u64>`, one bit per row)
//!   with branchless word-at-a-time accumulation.
//!
//! Every kernel is bit-compatible with its scalar counterpart: a
//! profile built here is `==` to [`ColumnProfile::from_values`] on the
//! expanded values, and a predicate bitmap selects exactly the rows
//! [`BoundPredicate::eval`]-style semantics select (comparisons with a
//! missing operand are false, even `Ne`; `Not` is logical complement).
//! That equivalence is what lets the executor switch paths freely
//! without perturbing a single statistic.
//!
//! [`BoundPredicate::eval`]: https://docs.rs/ (see `sdbms-relational::expr`)

use std::cmp::Ordering;

use sdbms_columnar::{BatchValues, ColumnBatch};
use sdbms_data::Value;

use crate::{scan_morsels, Accumulators, ColumnProfile, ExecConfig, Morsel, SegmentPruner};

/// Number of `u64` words a `rows`-bit selection bitmap needs.
#[must_use]
pub fn selection_words(rows: usize) -> usize {
    rows.div_ceil(64)
}

/// Comparison operator of a [`KernelPredicate::Cmp`] node. The truth
/// table over a [`Value::total_cmp`] ordering matches the scalar
/// predicate evaluator exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelCmp {
    /// Equal.
    Eq,
    /// Not equal (still false when the row is missing).
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl KernelCmp {
    /// Whether an ordering outcome satisfies the operator.
    #[must_use]
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            KernelCmp::Eq => ord == Ordering::Equal,
            KernelCmp::Ne => ord != Ordering::Equal,
            KernelCmp::Lt => ord == Ordering::Less,
            KernelCmp::Le => ord != Ordering::Greater,
            KernelCmp::Gt => ord == Ordering::Greater,
            KernelCmp::Ge => ord != Ordering::Less,
        }
    }
}

/// A predicate over the columns of one morsel, referencing batches by
/// slot index (the compiler from the relational layer assigns slots).
///
/// Missing semantics mirror the row-at-a-time evaluator: a `Cmp` whose
/// row value or literal is missing is false; `Not` is a plain logical
/// complement, so `Not(Cmp)` *selects* missing rows; `IsMissing` is
/// the validity complement.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelPredicate {
    /// Every row matches.
    True,
    /// The slot's value is missing in this row.
    IsMissing(usize),
    /// Compare the slot's value against a literal.
    Cmp {
        /// Batch slot of the column operand.
        col: usize,
        /// Comparison operator.
        op: KernelCmp,
        /// Literal operand (a missing literal matches nothing).
        lit: Value,
    },
    /// Both subpredicates hold.
    And(Box<KernelPredicate>, Box<KernelPredicate>),
    /// Either subpredicate holds.
    Or(Box<KernelPredicate>, Box<KernelPredicate>),
    /// The subpredicate does not hold.
    Not(Box<KernelPredicate>),
}

impl KernelPredicate {
    /// Evaluate to a selection bitmap over `rows` rows: bit `i` set ⟺
    /// row `i` matches. `cols[slot]` must hold the batch a
    /// `Cmp`/`IsMissing` node's slot refers to, each `rows` rows long.
    /// Tail bits past `rows` are always zero.
    #[must_use]
    pub fn eval(&self, cols: &[ColumnBatch], rows: usize) -> Vec<u64> {
        match self {
            KernelPredicate::True => {
                let mut out = vec![0u64; selection_words(rows)];
                set_bit_range(&mut out, 0, rows);
                out
            }
            KernelPredicate::IsMissing(slot) => {
                let mut out: Vec<u64> = cols[*slot].validity_words().to_vec();
                complement_in_place(&mut out, rows);
                out
            }
            KernelPredicate::Cmp { col, op, lit } => {
                let mut out = vec![0u64; selection_words(rows)];
                cmp_bitmap(&cols[*col], *op, lit, &mut out);
                out
            }
            KernelPredicate::And(a, b) => {
                let mut x = a.eval(cols, rows);
                let y = b.eval(cols, rows);
                for (xw, yw) in x.iter_mut().zip(&y) {
                    *xw &= *yw;
                }
                x
            }
            KernelPredicate::Or(a, b) => {
                let mut x = a.eval(cols, rows);
                let y = b.eval(cols, rows);
                for (xw, yw) in x.iter_mut().zip(&y) {
                    *xw |= *yw;
                }
                x
            }
            KernelPredicate::Not(p) => {
                let mut x = p.eval(cols, rows);
                complement_in_place(&mut x, rows);
                x
            }
        }
    }
}

/// Set bits `[start, end)` of a bitmap.
fn set_bit_range(out: &mut [u64], start: usize, end: usize) {
    if start >= end {
        return;
    }
    let (sw, ew) = (start / 64, (end - 1) / 64);
    let smask = !0u64 << (start % 64);
    let emask = !0u64 >> (63 - (end - 1) % 64);
    if sw == ew {
        out[sw] |= smask & emask;
    } else {
        out[sw] |= smask;
        for w in &mut out[sw + 1..ew] {
            *w = !0;
        }
        out[ew] |= emask;
    }
}

/// Complement a bitmap in place, keeping tail bits past `rows` zero.
fn complement_in_place(words: &mut [u64], rows: usize) {
    for w in words.iter_mut() {
        *w = !*w;
    }
    if !rows.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << (rows % 64)) - 1;
        }
    }
}

/// OR per-row predicate outcomes into `out`, masked by validity, one
/// 64-row word at a time. The inner loop is branch-free: the predicate
/// result becomes a bit via `u64::from`, so the compiler can keep the
/// whole word in a register (and vectorize `f` when it is a simple
/// slice compare).
fn fill_masked<F: Fn(usize) -> bool>(out: &mut [u64], validity: &[u64], rows: usize, f: F) {
    for (w, word) in out.iter_mut().enumerate() {
        let base = w * 64;
        let lanes = (rows - base).min(64);
        let mut m = 0u64;
        for j in 0..lanes {
            m |= u64::from(f(base + j)) << j;
        }
        *word |= m & validity[w];
    }
}

/// Evaluate `batch[i] op lit` into a selection bitmap. Missing rows
/// never match; a run view is evaluated once per run.
fn cmp_bitmap(batch: &ColumnBatch, op: KernelCmp, lit: &Value, out: &mut [u64]) {
    if lit.is_missing() {
        return; // eval: a missing operand makes every comparison false
    }
    if let Some(runs) = batch.run_lens() {
        let mut row = 0usize;
        for &n in runs {
            if batch.is_valid(row) && op.holds(batch.value_at(row).total_cmp(lit)) {
                set_bit_range(out, row, row + n);
            }
            row += n;
        }
        return;
    }
    let rows = batch.rows();
    let validity = batch.validity_words();
    match (batch.values(), lit) {
        (BatchValues::F64(xs), Value::Float(l)) => {
            fill_masked(out, validity, rows, |i| op.holds(xs[i].total_cmp(l)));
        }
        (BatchValues::F64(xs), Value::Int(l)) => {
            let lf = *l as f64;
            fill_masked(out, validity, rows, |i| op.holds(xs[i].total_cmp(&lf)));
        }
        (BatchValues::I64(xs), Value::Int(l)) => {
            fill_masked(out, validity, rows, |i| op.holds(xs[i].cmp(l)));
        }
        (BatchValues::I64(xs), Value::Float(l)) => {
            fill_masked(out, validity, rows, |i| {
                op.holds((xs[i] as f64).total_cmp(l))
            });
        }
        (BatchValues::Code(xs), Value::Code(l)) => {
            fill_masked(out, validity, rows, |i| op.holds(xs[i].cmp(l)));
        }
        (BatchValues::Other(vs), _) => {
            fill_masked(out, validity, rows, |i| op.holds(vs[i].total_cmp(lit)));
        }
        // A typed lane against a literal of another rank compares
        // constantly (total_cmp falls through to rank order), so one
        // probe row decides the outcome for every valid row.
        (BatchValues::F64(_) | BatchValues::I64(_) | BatchValues::Code(_), _) => {
            let probe = validity
                .iter()
                .enumerate()
                .find(|(_, w)| **w != 0)
                .map(|(w, word)| w * 64 + word.trailing_zeros() as usize);
            if let Some(i) = probe {
                if op.holds(batch.value_at(i).total_cmp(lit)) {
                    for (o, v) in out.iter_mut().zip(validity) {
                        *o |= *v;
                    }
                }
            }
        }
    }
}

/// Append the row indices a selection bitmap selects, offset by
/// `base`, in ascending order.
pub fn selection_to_indices(sel: &[u64], base: usize, out: &mut Vec<usize>) {
    for (w, &word) in sel.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            out.push(base + w * 64 + b);
        }
    }
}

/// Number of selected rows in a bitmap.
#[must_use]
pub fn selection_count(sel: &[u64]) -> usize {
    sel.iter().map(|w| w.count_ones() as usize).sum()
}

/// Fold one row of `batch` into `profile`, replaying exactly the
/// per-row steps of [`ColumnProfile::from_values`].
fn add_row(profile: &mut ColumnProfile, batch: &ColumnBatch, i: usize) {
    profile.rows += 1;
    if !batch.is_valid(i) {
        profile.count_value(&Value::Missing);
        profile.non_numeric += 1;
        return;
    }
    let x = match batch.values() {
        BatchValues::F64(xs) => {
            profile.count_value(&Value::Float(xs[i]));
            Some(xs[i])
        }
        BatchValues::I64(xs) => {
            profile.count_value(&Value::Int(xs[i]));
            Some(xs[i] as f64)
        }
        BatchValues::Code(xs) => {
            profile.count_value(&Value::Code(xs[i]));
            None
        }
        BatchValues::Other(vs) => {
            profile.count_value(&vs[i]);
            vs[i].as_f64()
        }
    };
    match x {
        Some(x) => profile.add_numbers(std::iter::once(x)),
        None => profile.non_numeric += 1,
    }
}

/// Fold a whole batch into `profile`, feeding the accumulators the
/// profile was opened for. The result equals feeding
/// [`ColumnBatch::to_values`] through [`ColumnProfile::of`] — without
/// materializing a single `Value` for typed lanes. A run view folds in
/// O(runs) frequency/extreme updates; the all-valid typed lanes are
/// branch-free slice loops.
pub fn add_batch(profile: &mut ColumnProfile, batch: &ColumnBatch) {
    if let Some(runs) = batch.run_lens() {
        let mut row = 0usize;
        for &n in runs {
            // One stack Value per run; the run-fed profile contract
            // guarantees equality with the per-row replay.
            profile.add_run(&batch.value_at(row), n);
            row += n;
        }
        return;
    }
    let count = profile.feeds().contains(Accumulators::FREQ);
    match batch.values() {
        BatchValues::F64(xs) if batch.all_valid() => {
            profile.rows += xs.len();
            profile.add_numbers(xs.iter().copied());
            if count {
                // Frequency counts are additive, so equal keys can be
                // collapsed before touching the tree: sort by the same
                // total order the table is keyed on, then one
                // `add_count` per distinct value.
                let mut sorted = xs.to_vec();
                sorted.sort_unstable_by(f64::total_cmp);
                count_sorted(
                    profile,
                    &sorted,
                    |a, b| a.to_bits() == b.to_bits(),
                    |&x| Value::Float(x),
                );
            }
        }
        BatchValues::I64(xs) if batch.all_valid() => {
            profile.rows += xs.len();
            profile.add_numbers(xs.iter().map(|&v| v as f64));
            if count {
                count_ints(profile, xs);
            }
        }
        _ => {
            for i in 0..batch.rows() {
                add_row(profile, batch, i);
            }
        }
    }
}

/// One `add_count` per maximal run of `same` keys in a sorted slice.
fn count_sorted<T>(
    profile: &mut ColumnProfile,
    sorted: &[T],
    same: impl Fn(&T, &T) -> bool,
    value: impl Fn(&T) -> Value,
) {
    for run in sorted.chunk_by(same) {
        profile.freq.add_count(&value(&run[0]), run.len() as u64);
    }
}

/// Frequency-count an all-valid integer lane. Narrow value ranges
/// (codes, block ids) take a counting pass instead of a sort: one
/// bucket per possible value.
fn count_ints(profile: &mut ColumnProfile, xs: &[i64]) {
    let (lo, hi) = xs
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let width = hi.checked_sub(lo).and_then(|w| w.checked_add(1));
    match width {
        Some(w) if !xs.is_empty() && w <= 65_536 => {
            let mut counts = vec![0u64; w as usize];
            for &v in xs {
                counts[(v - lo) as usize] += 1;
            }
            for (off, &n) in counts.iter().enumerate() {
                if n > 0 {
                    profile.freq.add_count(&Value::Int(lo + off as i64), n);
                }
            }
        }
        _ => {
            let mut sorted = xs.to_vec();
            sorted.sort_unstable();
            count_sorted(profile, &sorted, |a, b| a == b, |&v| Value::Int(v));
        }
    }
}

/// Morsel-parallel batch filter with zone-map pushdown: the ascending
/// row indices matching `pred`, identical at every worker count.
/// `fetch(m)` returns the predicate's column batches for morsel `m`,
/// indexed by the slots `pred` references; refuted morsels are skipped
/// before any fetch.
pub fn filter_batches_pruned<E, F, P>(
    rows: usize,
    cfg: &ExecConfig,
    pruner: &P,
    pred: &KernelPredicate,
    fetch: F,
) -> Result<Vec<usize>, E>
where
    F: Fn(Morsel) -> Result<Vec<ColumnBatch>, E> + Sync,
    E: Send,
    P: SegmentPruner + ?Sized,
{
    let chunks = scan_morsels(rows, cfg, |m| {
        let mut hits = Vec::new();
        if !pruner.may_match(m.start, m.len) {
            return Ok(hits);
        }
        // An always-true predicate selects the whole morsel; skip the
        // fetch and the bitmap and emit the index range directly.
        if matches!(pred, KernelPredicate::True) {
            hits.extend(m.start..m.start + m.len);
            return Ok(hits);
        }
        let cols = fetch(m)?;
        let sel = pred.eval(&cols, m.len);
        hits.reserve_exact(selection_count(&sel));
        selection_to_indices(&sel, m.start, &mut hits);
        Ok(hits)
    })?;
    let total = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for c in chunks {
        out.extend(c);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoPruner;

    /// Bit-exact profile equality. `ColumnProfile`'s derived
    /// `PartialEq` says NaN ≠ NaN, so profiles over data containing
    /// NaN compare unequal to *themselves*; this compares float state
    /// by bit pattern and frequency keys by `group_eq` instead.
    fn profile_bits_eq(a: &ColumnProfile, b: &ColumnProfile) -> bool {
        let (an, amean, am2) = a.moments.parts();
        let (bn, bmean, bm2) = b.moments.parts();
        let key = |p: Option<(f64, u64, f64, u64)>| {
            p.map(|(lo, lc, hi, hc)| (lo.to_bits(), lc, hi.to_bits(), hc))
        };
        let af: Vec<_> = a.freq.entries().collect();
        let bf: Vec<_> = b.freq.entries().collect();
        a.rows == b.rows
            && a.non_numeric == b.non_numeric
            && an == bn
            && amean.to_bits() == bmean.to_bits()
            && am2.to_bits() == bm2.to_bits()
            && key(a.minmax.parts()) == key(b.minmax.parts())
            && af.len() == bf.len()
            && af
                .iter()
                .zip(&bf)
                .all(|((va, ca), (vb, cb))| va.group_eq(vb) && ca == cb)
            && a.numbers.len() == b.numbers.len()
            && a.numbers
                .iter()
                .zip(&b.numbers)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Scalar reference evaluator with the exact row-at-a-time
    /// semantics the kernels must reproduce.
    fn scalar_eval(pred: &KernelPredicate, cols: &[Vec<Value>], i: usize) -> bool {
        match pred {
            KernelPredicate::True => true,
            KernelPredicate::IsMissing(s) => cols[*s][i].is_missing(),
            KernelPredicate::Cmp { col, op, lit } => {
                let v = &cols[*col][i];
                if v.is_missing() || lit.is_missing() {
                    return false;
                }
                op.holds(v.total_cmp(lit))
            }
            KernelPredicate::And(a, b) => scalar_eval(a, cols, i) && scalar_eval(b, cols, i),
            KernelPredicate::Or(a, b) => scalar_eval(a, cols, i) || scalar_eval(b, cols, i),
            KernelPredicate::Not(p) => !scalar_eval(p, cols, i),
        }
    }

    fn assert_bitmap_matches_scalar(pred: &KernelPredicate, cols: &[Vec<Value>]) {
        let rows = cols.first().map_or(0, Vec::len);
        let batches: Vec<ColumnBatch> = cols.iter().map(|c| ColumnBatch::from_values(c)).collect();
        let sel = pred.eval(&batches, rows);
        let mut got = Vec::new();
        selection_to_indices(&sel, 0, &mut got);
        let expect: Vec<usize> = (0..rows).filter(|&i| scalar_eval(pred, cols, i)).collect();
        assert_eq!(got, expect, "{pred:?}");
        assert_eq!(selection_count(&sel), expect.len());
        // Tail bits past `rows` stay clear.
        if !rows.is_multiple_of(64) {
            assert_eq!(sel.last().unwrap() >> (rows % 64), 0, "tail bits set");
        }
    }

    fn cmp(col: usize, op: KernelCmp, lit: Value) -> KernelPredicate {
        KernelPredicate::Cmp { col, op, lit }
    }

    fn mixed_float_col(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| match i % 9 {
                0 => Value::Missing,
                3 => Value::Float(f64::NAN),
                6 => Value::Float(-0.0),
                _ => Value::Float(i as f64 * 0.5 - 40.0),
            })
            .collect()
    }

    fn int_col(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| {
                if i % 11 == 5 {
                    Value::Missing
                } else {
                    Value::Int(i as i64 % 50 - 25)
                }
            })
            .collect()
    }

    fn code_col(n: usize) -> Vec<Value> {
        (0..n)
            .map(|i| {
                if i % 13 == 1 {
                    Value::Missing
                } else {
                    Value::Code(u32::try_from(i % 4).unwrap())
                }
            })
            .collect()
    }

    const ALL_OPS: [KernelCmp; 6] = [
        KernelCmp::Eq,
        KernelCmp::Ne,
        KernelCmp::Lt,
        KernelCmp::Le,
        KernelCmp::Gt,
        KernelCmp::Ge,
    ];

    #[test]
    fn cmp_bitmaps_match_scalar_on_every_lane_and_op() {
        let floats = mixed_float_col(333);
        let ints = int_col(333);
        let codes = code_col(333);
        let cols = vec![floats, ints, codes];
        for op in ALL_OPS {
            assert_bitmap_matches_scalar(&cmp(0, op, Value::Float(-1.5)), &cols);
            assert_bitmap_matches_scalar(&cmp(0, op, Value::Int(3)), &cols);
            assert_bitmap_matches_scalar(&cmp(0, op, Value::Float(f64::NAN)), &cols);
            assert_bitmap_matches_scalar(&cmp(1, op, Value::Int(0)), &cols);
            assert_bitmap_matches_scalar(&cmp(1, op, Value::Float(0.5)), &cols);
            assert_bitmap_matches_scalar(&cmp(2, op, Value::Code(2)), &cols);
        }
    }

    #[test]
    fn cross_rank_literals_compare_constantly() {
        let cols = vec![int_col(100), code_col(100)];
        for op in ALL_OPS {
            // Int lane vs Str / Code literals: rank order decides.
            assert_bitmap_matches_scalar(&cmp(0, op, Value::Str("x".into())), &cols);
            assert_bitmap_matches_scalar(&cmp(0, op, Value::Code(1)), &cols);
            // Code lane vs numeric / string literals.
            assert_bitmap_matches_scalar(&cmp(1, op, Value::Int(2)), &cols);
            assert_bitmap_matches_scalar(&cmp(1, op, Value::Str("x".into())), &cols);
        }
    }

    #[test]
    fn missing_literal_matches_nothing_even_negated() {
        let cols = vec![int_col(90)];
        for op in ALL_OPS {
            assert_bitmap_matches_scalar(&cmp(0, op, Value::Missing), &cols);
        }
        // NOT (x = Missing) selects every row — including missing ones.
        let not = KernelPredicate::Not(Box::new(cmp(0, KernelCmp::Eq, Value::Missing)));
        assert_bitmap_matches_scalar(&not, &cols);
    }

    #[test]
    fn connectives_and_is_missing_match_scalar() {
        let cols = vec![mixed_float_col(257), int_col(257)];
        let p = KernelPredicate::And(
            Box::new(cmp(0, KernelCmp::Ge, Value::Float(-10.0))),
            Box::new(KernelPredicate::Not(Box::new(cmp(
                1,
                KernelCmp::Gt,
                Value::Int(10),
            )))),
        );
        assert_bitmap_matches_scalar(&p, &cols);
        let q = KernelPredicate::Or(
            Box::new(KernelPredicate::IsMissing(0)),
            Box::new(cmp(1, KernelCmp::Eq, Value::Int(-25))),
        );
        assert_bitmap_matches_scalar(&q, &cols);
        assert_bitmap_matches_scalar(&KernelPredicate::True, &cols);
        assert_bitmap_matches_scalar(&KernelPredicate::IsMissing(1), &cols);
    }

    #[test]
    fn run_view_cmp_matches_per_row() {
        // A batch built from runs keeps its run view; the bitmap must
        // still equal the per-row evaluation of the expansion.
        let mut batch = ColumnBatch::new();
        let runs: [(Value, usize); 6] = [
            (Value::Code(1), 70),
            (Value::Missing, 3),
            (Value::Code(3), 130),
            (Value::Code(1), 1),
            (Value::Missing, 64),
            (Value::Code(0), 12),
        ];
        for (v, n) in &runs {
            batch.push_run(v, *n);
        }
        assert!(batch.run_lens().is_some());
        let expanded = batch.to_values();
        let cols = vec![expanded];
        for op in ALL_OPS {
            let pred = cmp(0, op, Value::Code(1));
            let sel = pred.eval(std::slice::from_ref(&batch), batch.rows());
            let mut got = Vec::new();
            selection_to_indices(&sel, 0, &mut got);
            let expect: Vec<usize> = (0..batch.rows())
                .filter(|&i| scalar_eval(&pred, &cols, i))
                .collect();
            assert_eq!(got, expect, "{op:?}");
        }
    }

    #[test]
    fn add_batch_equals_from_values() {
        for col in [
            mixed_float_col(1000),
            int_col(1000),
            code_col(1000),
            Vec::new(),
            vec![Value::Missing; 130],
            vec![
                Value::Str("a".into()),
                Value::Int(3),
                Value::Missing,
                Value::Float(f64::NAN),
            ],
        ] {
            let expect = ColumnProfile::from_values(&col);
            let batch = ColumnBatch::from_values(&col);
            let mut got = ColumnProfile::default();
            add_batch(&mut got, &batch);
            assert!(profile_bits_eq(&got, &expect), "{col:?}");
        }
    }

    #[test]
    fn add_batch_uses_run_view_identically() {
        let mut batch = ColumnBatch::new();
        batch.push_run(&Value::Int(7), 100);
        batch.push_run(&Value::Missing, 30);
        batch.push_run(&Value::Float(2.5), 65);
        batch.push_run(&Value::Int(7), 1);
        let expect = ColumnProfile::from_values(&batch.to_values());
        let mut got = ColumnProfile::default();
        add_batch(&mut got, &batch);
        assert_eq!(got, expect);
    }

    #[test]
    fn filter_batches_pruned_matches_scalar_filter_at_every_worker_count() {
        let floats = mixed_float_col(5000);
        let ints = int_col(5000);
        let cols = vec![floats.clone(), ints.clone()];
        let pred = KernelPredicate::Or(
            Box::new(cmp(0, KernelCmp::Ge, Value::Float(10.0))),
            Box::new(KernelPredicate::And(
                Box::new(cmp(1, KernelCmp::Le, Value::Int(0))),
                Box::new(KernelPredicate::Not(Box::new(KernelPredicate::IsMissing(
                    0,
                )))),
            )),
        );
        let expect: Vec<usize> = (0..5000)
            .filter(|&i| scalar_eval(&pred, &cols, i))
            .collect();
        for workers in [1, 2, 4, 8] {
            let cfg = ExecConfig {
                workers,
                morsel_rows: 256,
            };
            let got = filter_batches_pruned::<std::convert::Infallible, _, _>(
                5000,
                &cfg,
                &NoPruner,
                &pred,
                |m| {
                    Ok(vec![
                        ColumnBatch::from_values(&floats[m.start..m.start + m.len]),
                        ColumnBatch::from_values(&ints[m.start..m.start + m.len]),
                    ])
                },
            )
            .unwrap();
            assert_eq!(got, expect, "{workers} workers");
        }
    }

    #[test]
    fn selection_helpers_round_trip() {
        let mut sel = vec![0u64; selection_words(150)];
        set_bit_range(&mut sel, 0, 3);
        set_bit_range(&mut sel, 63, 65);
        set_bit_range(&mut sel, 149, 150);
        set_bit_range(&mut sel, 10, 10); // empty range: no-op
        let mut idx = Vec::new();
        selection_to_indices(&sel, 1000, &mut idx);
        assert_eq!(idx, vec![1000, 1001, 1002, 1063, 1064, 1149]);
        assert_eq!(selection_count(&sel), 6);
        complement_in_place(&mut sel, 150);
        assert_eq!(selection_count(&sel), 150 - 6);
    }

    proptest::proptest! {
        /// Random data, random comparison: bitmap == scalar filter.
        #[test]
        fn prop_cmp_bitmap_matches_scalar(
            vals in proptest::collection::vec((0u8..5, -60i64..60), 0..300),
            op_i in 0usize..6,
            lit_kind in 0u8..5,
            lit_x in -70i64..70,
        ) {
            let col: Vec<Value> = vals
                .iter()
                .map(|&(k, x)| match k {
                    0 => Value::Missing,
                    1 => Value::Int(x),
                    2 => {
                        if x % 13 == 0 {
                            Value::Float(f64::NAN)
                        } else {
                            Value::Float(x as f64 / 4.0)
                        }
                    }
                    3 => Value::Code(x.unsigned_abs() as u32 % 8),
                    _ => Value::Str(format!("s{}", x % 6)),
                })
                .collect();
            let lit = match lit_kind {
                0 => Value::Missing,
                1 => Value::Int(lit_x),
                2 => Value::Float(lit_x as f64 / 4.0),
                3 => Value::Code(lit_x.unsigned_abs() as u32 % 8),
                _ => Value::Str(format!("s{}", lit_x % 6)),
            };
            let pred = KernelPredicate::Cmp { col: 0, op: ALL_OPS[op_i], lit };
            let cols = vec![col];
            let batch = ColumnBatch::from_values(&cols[0]);
            let sel = pred.eval(std::slice::from_ref(&batch), batch.rows());
            let mut got = Vec::new();
            selection_to_indices(&sel, 0, &mut got);
            let expect: Vec<usize> =
                (0..cols[0].len()).filter(|&i| scalar_eval(&pred, &cols, i)).collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
