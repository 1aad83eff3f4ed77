//! Seeded update steps.
//!
//! Every chaos/recovery/serving workload in the repo drives the same
//! analyst edit: *bump INCOME where AGE > threshold*. The seeded form
//! draws `threshold` then `bump` from a splitmix state — exactly two
//! draws in that order, matching the historical chaos streams — and
//! callers use whichever shape their API needs: `update_where`
//! arguments, a staged [`BatchOp`], or the raw parts.

use sdbms_core::{BatchOp, BinOp, CmpOp, CoreError, Expr, Predicate, StatDbms, UpdateReport};

use crate::rng::splitmix;

/// One seeded analyst edit: add `bump` to INCOME on every row with
/// AGE > `threshold`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncomeUpdate {
    /// AGE cut-off (exclusive).
    pub threshold: i64,
    /// Amount added to INCOME on matching rows.
    pub bump: i64,
}

/// Draw the next seeded edit: `threshold ∈ 20..65`, `bump ∈ 1..501`,
/// using exactly two [`splitmix`] draws (threshold first) so existing
/// seeded schedules keep their historical streams.
pub fn seeded_income_update(state: &mut u64) -> IncomeUpdate {
    let threshold = 20 + (splitmix(state) % 45) as i64;
    let bump = 1 + (splitmix(state) % 500) as i64;
    IncomeUpdate { threshold, bump }
}

impl IncomeUpdate {
    /// The row filter: `AGE > threshold`.
    #[must_use]
    pub fn predicate(&self) -> Predicate {
        Predicate::cmp(Expr::col("AGE"), CmpOp::Gt, Expr::lit(self.threshold))
    }

    /// The assignment list: `INCOME := INCOME + bump`.
    #[must_use]
    pub fn assignments(&self) -> Vec<(&'static str, Expr)> {
        vec![(
            "INCOME",
            Expr::col("INCOME").binary(BinOp::Add, Expr::lit(self.bump)),
        )]
    }

    /// The edit as one stageable batch op.
    #[must_use]
    pub fn batch_op(&self) -> BatchOp {
        BatchOp::UpdateWhere {
            predicate: self.predicate(),
            assignments: self
                .assignments()
                .into_iter()
                .map(|(a, e)| (a.to_string(), e))
                .collect(),
        }
    }

    /// Apply the edit as one statement (`StatDbms::update_where`).
    pub fn apply(&self, dbms: &mut StatDbms, view: &str) -> Result<UpdateReport, CoreError> {
        dbms.update_where(view, &self.predicate(), &self.assignments())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{CensusFixture, CENSUS_VIEW};

    #[test]
    fn seeded_draws_match_the_historical_chaos_stream() {
        // The chaos harness drew `20 + splitmix % 45` then
        // `1 + splitmix % 500`; the helper must reproduce that from
        // the same state.
        let mut a = 0xC0FF_EE00u64;
        let mut b = 0xC0FF_EE00u64;
        let want_threshold = 20 + (splitmix(&mut a) % 45) as i64;
        let want_bump = 1 + (splitmix(&mut a) % 500) as i64;
        let got = seeded_income_update(&mut b);
        assert_eq!(got.threshold, want_threshold);
        assert_eq!(got.bump, want_bump);
        assert_eq!(a, b, "both consumed exactly two draws");
    }

    #[test]
    fn batch_op_and_update_where_agree() {
        let mut direct = CensusFixture::new().rows(60).build().expect("fixture");
        let mut batched = CensusFixture::new().rows(60).build().expect("fixture");
        let mut s = 7u64;
        let edit = seeded_income_update(&mut s);
        let report = edit.apply(&mut direct, CENSUS_VIEW).expect("update");
        assert!(report.rows_matched > 0);
        let b = batched.begin_batch(CENSUS_VIEW).expect("begin");
        batched.batch_stage(b, edit.batch_op()).expect("stage");
        let committed = batched.commit_batch(b).expect("commit");
        assert_eq!(committed.rows_matched, report.rows_matched);
        assert_eq!(committed.cells_changed, report.cells_changed);
        let da = direct.snapshot(CENSUS_VIEW).expect("snap");
        let db = batched.snapshot(CENSUS_VIEW).expect("snap");
        assert_eq!(
            da.column("INCOME").expect("col"),
            db.column("INCOME").expect("col")
        );
    }
}
