//! Finite differencing of aggregate definitions.
//!
//! §4.2: "since new statistical methods are evolving it would be
//! desirable to have some means for automatically generating an
//! incrementally recomputable algorithm for a function given the
//! function definition in some high-level form… Koenig and Paige
//! discuss the application of finite differencing to the generation of
//! the incrementally recomputable code for several commonly used
//! aggregate operators. In particular, they consider totals and
//! averages."
//!
//! [`AggExpr`] is that high-level form: an algebra of per-row power
//! sums combined arithmetically. [`differentiate`] performs the
//! "derivative" step: it extracts the base accumulators (count and
//! Σxᵏ) and returns a [`DifferentialProgram`] whose state updates in
//! O(1) per changed value and whose result is re-evaluated from state
//! alone. Expressions containing order-dependent subterms
//! ([`AggExpr::MedianOf`]) are rejected — exactly the limitation §4.2
//! identifies ("there are no methods for describing the ordering of
//! the data in some concise manner").
//!
//! This module exists to reproduce paper Figure 5 (experiment F5:
//! `tests/paper_figures.rs::figure5_differenced_program_equals_loop`);
//! the engine does not run it. The
//! Summary Database's maintenance of differentiable functions is
//! `AuxState::Moments` in `sdbms-summary`, updated by
//! `apply_deltas_to_aux` — the one statement of that rule.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::{ManagementError, Result};

/// A per-row term inside an aggregate (the thing summed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RowTerm {
    /// The column value raised to a small power (`Power(1)` = x,
    /// `Power(2)` = x², …, `Power(0)` = 1 i.e. a count).
    Power(u8),
}

impl fmt::Display for RowTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowTerm::Power(0) => write!(f, "1"),
            RowTerm::Power(1) => write!(f, "x"),
            RowTerm::Power(k) => write!(f, "x^{k}"),
        }
    }
}

/// An aggregate function definition in high-level form.
#[derive(Debug, Clone, PartialEq)]
pub enum AggExpr {
    /// Number of observations.
    Count,
    /// Σ over rows of a row term.
    SumOf(RowTerm),
    /// A constant.
    Const(f64),
    /// Addition.
    Add(Box<AggExpr>, Box<AggExpr>),
    /// Subtraction.
    Sub(Box<AggExpr>, Box<AggExpr>),
    /// Multiplication.
    Mul(Box<AggExpr>, Box<AggExpr>),
    /// Division (0/0 handled as an evaluation error by callers).
    Div(Box<AggExpr>, Box<AggExpr>),
    /// An order statistic — present in the language so definitions can
    /// *mention* it, but not differentiable (§4.2).
    MedianOf,
    /// Minimum — not differentiable under deletion.
    MinOf,
    /// Maximum — not differentiable under deletion.
    MaxOf,
}

impl AggExpr {
    /// `Σx / n` — the running example of Koenig & Paige.
    #[must_use]
    pub fn mean() -> AggExpr {
        AggExpr::Div(
            Box::new(AggExpr::SumOf(RowTerm::Power(1))),
            Box::new(AggExpr::Count),
        )
    }

    /// Sample variance `(Σx² − (Σx)²/n) / (n−1)`.
    #[must_use]
    pub fn variance() -> AggExpr {
        let sum = AggExpr::SumOf(RowTerm::Power(1));
        let sumsq = AggExpr::SumOf(RowTerm::Power(2));
        AggExpr::Div(
            Box::new(AggExpr::Sub(
                Box::new(sumsq),
                Box::new(AggExpr::Div(
                    Box::new(AggExpr::Mul(Box::new(sum.clone()), Box::new(sum))),
                    Box::new(AggExpr::Count),
                )),
            )),
            Box::new(AggExpr::Sub(
                Box::new(AggExpr::Count),
                Box::new(AggExpr::Const(1.0)),
            )),
        )
    }

    /// Collect the base accumulators this expression needs; errors on
    /// non-differentiable subterms.
    fn collect_terms(&self, terms: &mut BTreeSet<RowTerm>) -> Result<()> {
        match self {
            AggExpr::Count => {
                terms.insert(RowTerm::Power(0));
                Ok(())
            }
            AggExpr::SumOf(t) => {
                terms.insert(*t);
                Ok(())
            }
            AggExpr::Const(_) => Ok(()),
            AggExpr::Add(a, b) | AggExpr::Sub(a, b) | AggExpr::Mul(a, b) | AggExpr::Div(a, b) => {
                a.collect_terms(terms)?;
                b.collect_terms(terms)
            }
            AggExpr::MedianOf => Err(ManagementError::NotDifferentiable(
                "median: the result depends on the ordering of the data, which has no \
                 constant-size differential state",
            )),
            AggExpr::MinOf => Err(ManagementError::NotDifferentiable(
                "min: deleting the current minimum requires a rescan",
            )),
            AggExpr::MaxOf => Err(ManagementError::NotDifferentiable(
                "max: deleting the current maximum requires a rescan",
            )),
        }
    }
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggExpr::Count => write!(f, "n"),
            AggExpr::SumOf(t) => write!(f, "Σ{t}"),
            AggExpr::Const(c) => write!(f, "{c}"),
            AggExpr::Add(a, b) => write!(f, "({a} + {b})"),
            AggExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            AggExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            AggExpr::Div(a, b) => write!(f, "({a} / {b})"),
            AggExpr::MedianOf => write!(f, "median"),
            AggExpr::MinOf => write!(f, "min"),
            AggExpr::MaxOf => write!(f, "max"),
        }
    }
}

/// The "derivative": an incrementally maintainable program equivalent
/// to an [`AggExpr`].
#[derive(Debug, Clone, PartialEq)]
pub struct DifferentialProgram {
    expr: AggExpr,
    /// Which power sums the state tracks (sorted).
    terms: Vec<RowTerm>,
    /// Current value of each power sum.
    state: Vec<f64>,
}

impl DifferentialProgram {
    /// State size (number of base accumulators) — constant in the data
    /// size, which is the whole point.
    #[must_use]
    pub fn state_size(&self) -> usize {
        self.terms.len()
    }

    /// Initialize the state with a full pass over the data.
    pub fn initialize(&mut self, data: &[f64]) {
        for (t, s) in self.terms.iter().zip(self.state.iter_mut()) {
            let RowTerm::Power(k) = t;
            *s = data.iter().map(|&x| x.powi(i32::from(*k))).sum();
        }
    }

    /// Apply one value insertion — O(state_size).
    pub fn insert(&mut self, x: f64) {
        for (t, s) in self.terms.iter().zip(self.state.iter_mut()) {
            let RowTerm::Power(k) = t;
            *s += x.powi(i32::from(*k));
        }
    }

    /// Apply one value deletion — O(state_size).
    pub fn delete(&mut self, x: f64) {
        for (t, s) in self.terms.iter().zip(self.state.iter_mut()) {
            let RowTerm::Power(k) = t;
            *s -= x.powi(i32::from(*k));
        }
    }

    /// Apply one value replacement — O(state_size). This is `f'` in
    /// the paper's Figure 5: the loop body recomputes the function
    /// from the changed argument alone.
    pub fn replace(&mut self, old: f64, new: f64) {
        self.delete(old);
        self.insert(new);
    }

    /// Evaluate the aggregate from state alone (no data access).
    /// Returns `None` on domain errors (division by zero).
    #[must_use]
    pub fn evaluate(&self) -> Option<f64> {
        self.eval_expr(&self.expr)
    }

    fn term_value(&self, t: RowTerm) -> f64 {
        let i = self
            .terms
            .iter()
            .position(|&x| x == t)
            // lint: allow(no-panic): differentiate() registers every RowTerm the expression mentions before this runs
            .expect("terms collected at differentiation time");
        self.state[i]
    }

    fn eval_expr(&self, e: &AggExpr) -> Option<f64> {
        match e {
            AggExpr::Count => Some(self.term_value(RowTerm::Power(0))),
            AggExpr::SumOf(t) => Some(self.term_value(*t)),
            AggExpr::Const(c) => Some(*c),
            AggExpr::Add(a, b) => Some(self.eval_expr(a)? + self.eval_expr(b)?),
            AggExpr::Sub(a, b) => Some(self.eval_expr(a)? - self.eval_expr(b)?),
            AggExpr::Mul(a, b) => Some(self.eval_expr(a)? * self.eval_expr(b)?),
            AggExpr::Div(a, b) => {
                let d = self.eval_expr(b)?;
                if d == 0.0 {
                    None
                } else {
                    Some(self.eval_expr(a)? / d)
                }
            }
            AggExpr::MedianOf | AggExpr::MinOf | AggExpr::MaxOf => {
                // lint: allow(no-panic): differentiate() returns NotDifferentiable for these variants, so no DifferencedAggregate holds them
                unreachable!("rejected at differentiation time")
            }
        }
    }
}

/// Differentiate an aggregate definition, producing a program whose
/// per-update cost is O(1) in the data size. Errors for definitions
/// with order-dependent subterms.
pub fn differentiate(expr: &AggExpr) -> Result<DifferentialProgram> {
    let mut terms = BTreeSet::new();
    expr.collect_terms(&mut terms)?;
    let terms: Vec<RowTerm> = terms.into_iter().collect();
    let state = vec![0.0; terms.len()];
    Ok(DifferentialProgram {
        expr: expr.clone(),
        terms,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbms_stats::descriptive;

    fn data() -> Vec<f64> {
        (0..500).map(|i| ((i * 37) % 101) as f64 - 17.0).collect()
    }

    #[test]
    fn mean_program_tracks_batch() {
        let mut d = data();
        let mut p = differentiate(&AggExpr::mean()).unwrap();
        assert_eq!(p.state_size(), 2, "n and Σx");
        p.initialize(&d);
        assert!((p.evaluate().unwrap() - descriptive::mean(&d).unwrap()).abs() < 1e-9);
        // A hundred replacements, no data access.
        for x in d.iter_mut().take(100) {
            let old = *x;
            *x = old * 2.0 + 1.0;
            p.replace(old, *x);
        }
        assert!((p.evaluate().unwrap() - descriptive::mean(&d).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn variance_program_tracks_batch() {
        let mut d = data();
        let mut p = differentiate(&AggExpr::variance()).unwrap();
        assert_eq!(p.state_size(), 3, "n, Σx, Σx²");
        p.initialize(&d);
        let got = p.evaluate().unwrap();
        let want = descriptive::variance(&d).unwrap();
        assert!((got - want).abs() < 1e-6 * want.max(1.0), "{got} vs {want}");
        for i in (0..d.len()).step_by(7) {
            let old = d[i];
            d[i] = -old + 3.0;
            p.replace(old, d[i]);
        }
        let got = p.evaluate().unwrap();
        let want = descriptive::variance(&d).unwrap();
        assert!((got - want).abs() < 1e-6 * want.max(1.0), "{got} vs {want}");
    }

    #[test]
    fn insert_delete_change_count() {
        let mut p = differentiate(&AggExpr::Count).unwrap();
        p.initialize(&[1.0, 2.0, 3.0]);
        assert_eq!(p.evaluate().unwrap(), 3.0);
        p.insert(9.0);
        p.insert(10.0);
        p.delete(1.0);
        assert_eq!(p.evaluate().unwrap(), 4.0);
    }

    #[test]
    fn median_min_max_rejected() {
        for e in [AggExpr::MedianOf, AggExpr::MinOf, AggExpr::MaxOf] {
            assert!(matches!(
                differentiate(&e),
                Err(ManagementError::NotDifferentiable(_))
            ));
        }
        // Rejection propagates through composition.
        let nested = AggExpr::Div(Box::new(AggExpr::MedianOf), Box::new(AggExpr::Count));
        assert!(differentiate(&nested).is_err());
    }

    #[test]
    fn empty_state_degenerates_gracefully() {
        let p = differentiate(&AggExpr::mean()).unwrap();
        // n = 0: division by zero -> None, not a panic.
        assert_eq!(p.evaluate(), None);
    }

    #[test]
    fn shared_terms_deduplicated() {
        // (Σx * Σx) / n uses Σx twice but stores it once.
        let e = AggExpr::Div(
            Box::new(AggExpr::Mul(
                Box::new(AggExpr::SumOf(RowTerm::Power(1))),
                Box::new(AggExpr::SumOf(RowTerm::Power(1))),
            )),
            Box::new(AggExpr::Count),
        );
        let p = differentiate(&e).unwrap();
        assert_eq!(p.state_size(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(AggExpr::mean().to_string(), "(Σx / n)");
        assert!(AggExpr::variance().to_string().contains("Σx^2"));
    }

    proptest::proptest! {
        #[test]
        fn prop_program_matches_recompute(
            base in proptest::collection::vec(-100.0f64..100.0, 3..100),
            updates in proptest::collection::vec(
                (proptest::prelude::any::<proptest::sample::Index>(), -100.0f64..100.0), 0..40)
        ) {
            let mut d = base;
            let mut mean_p = differentiate(&AggExpr::mean()).unwrap();
            let mut var_p = differentiate(&AggExpr::variance()).unwrap();
            mean_p.initialize(&d);
            var_p.initialize(&d);
            for (idx, new) in updates {
                let i = idx.index(d.len());
                let old = d[i];
                d[i] = new;
                mean_p.replace(old, new);
                var_p.replace(old, new);
            }
            let m = mean_p.evaluate().unwrap();
            let want_m = descriptive::mean(&d).unwrap();
            proptest::prop_assert!((m - want_m).abs() < 1e-6 * want_m.abs().max(1.0));
            let v = var_p.evaluate().unwrap();
            let want_v = descriptive::variance(&d).unwrap();
            proptest::prop_assert!((v - want_v).abs() < 1e-4 * want_v.abs().max(1.0),
                "var {} vs {}", v, want_v);
        }
    }
}
