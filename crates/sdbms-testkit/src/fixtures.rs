//! The shared census-view fixture.
//!
//! One builder replaces the near-identical `setup()` functions that
//! grew in `tests/chaos.rs` (160 rows, crash-consistent, warmed),
//! `tests/crash_recovery_props.rs` (60 rows), and
//! `examples/fault_tolerance.rs` (500 rows, cold). Defaults reproduce
//! the chaos harness fixture exactly; every knob is a builder method.

use sdbms_core::{
    AccuracyPolicy, CoreError, DurabilityPolicy, StatDbms, StatFunction, ViewDefinition,
};
use sdbms_data::census::{microdata_census, CensusConfig};
use sdbms_data::Value;
use sdbms_storage::StorageEnv;
use sdbms_summary::{Histogram, SummaryValue};

/// The fixture's view name.
pub const CENSUS_VIEW: &str = "v";

/// The raw data set the view scans.
pub const CENSUS_SOURCE: &str = "census_microdata";

/// The numeric attributes every seeded workload queries.
pub const CENSUS_ATTRS: [&str; 2] = ["AGE", "INCOME"];

/// The summary functions the seeded workloads exercise and verify.
#[must_use]
pub fn checked_functions() -> Vec<StatFunction> {
    vec![
        StatFunction::Count,
        StatFunction::Mean,
        StatFunction::Min,
        StatFunction::Max,
        StatFunction::Median,
    ]
}

/// Whether a served summary agrees with the column it summarises. A
/// scalar or vector must match a from-scratch recompute within the
/// repo's 1e-9 relative tolerance for cached-versus-recomputed values.
/// An incrementally maintained histogram keeps the bin edges it was
/// built with (values outside them are counted below or above), so it
/// is checked against the column binned into *its own* edges — the
/// histogram contract (DESIGN.md §9).
#[must_use]
pub fn agrees(f: &StatFunction, served: &SummaryValue, column: &[Value]) -> bool {
    if let SummaryValue::Histogram(h) = served {
        let (Some(lo), Some(hi)) = (h.edges().first(), h.edges().last()) else {
            return false;
        };
        let Ok(mut want) = Histogram::with_range(*lo, *hi, h.bins()) else {
            return false;
        };
        let numbers = column.iter().filter_map(Value::as_f64);
        numbers.for_each(|x| want.add(x));
        return want.counts() == h.counts()
            && want.below() == h.below()
            && want.above() == h.above();
    }
    f.compute(column)
        .is_ok_and(|want| served.approx_eq(&want, 1e-9))
}

/// Builder for a DBMS holding one materialized census view named
/// [`CENSUS_VIEW`]. The census generator is seeded, so two fixtures
/// built with the same knobs hold identical bytes — the property every
/// differential oracle in the repo leans on.
#[derive(Debug, Clone)]
pub struct CensusFixture {
    rows: usize,
    pool_pages: usize,
    seed: Option<u64>,
    invalid_fraction: f64,
    outlier_fraction: f64,
    owner: String,
    crash_consistent: bool,
    warm: bool,
}

impl Default for CensusFixture {
    /// The chaos-harness fixture: 160 clean rows on a 256-page pool,
    /// crash-consistent durability, summaries warmed for
    /// [`CENSUS_ATTRS`] × [`checked_functions`].
    fn default() -> Self {
        CensusFixture {
            rows: 160,
            pool_pages: 256,
            seed: None,
            invalid_fraction: 0.0,
            outlier_fraction: 0.0,
            owner: "testkit".to_string(),
            crash_consistent: true,
            warm: true,
        }
    }
}

impl CensusFixture {
    /// Start from the defaults (see [`CensusFixture::default`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of person records in the view.
    #[must_use]
    pub fn rows(mut self, rows: usize) -> Self {
        self.rows = rows;
        self
    }

    /// Buffer-pool size in pages.
    #[must_use]
    pub fn pool_pages(mut self, pages: usize) -> Self {
        self.pool_pages = pages;
        self
    }

    /// Census generator seed (defaults to the generator's own default).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Fraction of records given an invalid measurement.
    #[must_use]
    pub fn invalid_fraction(mut self, f: f64) -> Self {
        self.invalid_fraction = f;
        self
    }

    /// Fraction of records given a legitimate but extreme value.
    #[must_use]
    pub fn outlier_fraction(mut self, f: f64) -> Self {
        self.outlier_fraction = f;
        self
    }

    /// Recorded owner of the view.
    #[must_use]
    pub fn owner(mut self, owner: &str) -> Self {
        self.owner = owner.to_string();
        self
    }

    /// Whether to enable [`DurabilityPolicy::CrashConsistent`]
    /// (default: yes).
    #[must_use]
    pub fn crash_consistent(mut self, yes: bool) -> Self {
        self.crash_consistent = yes;
        self
    }

    /// Whether to warm the Summary DB for [`CENSUS_ATTRS`] ×
    /// [`checked_functions`] (default: yes).
    #[must_use]
    pub fn warm(mut self, yes: bool) -> Self {
        self.warm = yes;
        self
    }

    /// Build the DBMS, fault-free.
    pub fn build(&self) -> Result<StatDbms, CoreError> {
        let mut dbms = StatDbms::with_env(StorageEnv::new(self.pool_pages));
        let mut cfg = CensusConfig {
            rows: self.rows,
            invalid_fraction: self.invalid_fraction,
            outlier_fraction: self.outlier_fraction,
            ..Default::default()
        };
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        let raw = microdata_census(&cfg)?;
        dbms.load_raw(&raw)?;
        dbms.materialize(
            ViewDefinition::scan(CENSUS_VIEW, CENSUS_SOURCE),
            &self.owner,
        )?;
        if self.crash_consistent {
            dbms.set_durability(DurabilityPolicy::CrashConsistent)?;
        }
        if self.warm {
            for a in CENSUS_ATTRS {
                for f in checked_functions() {
                    dbms.compute(CENSUS_VIEW, a, &f, AccuracyPolicy::Exact)?;
                }
            }
        }
        Ok(dbms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_fixture_matches_the_chaos_setup() {
        let mut dbms = CensusFixture::new().build().expect("fixture");
        let snap = dbms.snapshot(CENSUS_VIEW).expect("snapshot");
        assert_eq!(snap.len(), 160);
        drop(snap);
        // Summaries are warm: the first compute is already a cache hit.
        let (_, src) = dbms
            .compute(
                CENSUS_VIEW,
                "INCOME",
                &StatFunction::Mean,
                AccuracyPolicy::Exact,
            )
            .expect("compute");
        assert_eq!(src, sdbms_core::ComputeSource::Cache);
    }

    #[test]
    fn same_knobs_same_bytes() {
        let a = CensusFixture::new().rows(80).build().expect("a");
        let b = CensusFixture::new().rows(80).build().expect("b");
        let col_a = a.snapshot(CENSUS_VIEW).expect("a").column("INCOME");
        let col_b = b.snapshot(CENSUS_VIEW).expect("b").column("INCOME");
        assert_eq!(col_a.expect("col a"), col_b.expect("col b"));
    }

    #[test]
    fn knobs_apply() {
        let mut dbms = CensusFixture::new()
            .rows(30)
            .pool_pages(128)
            .seed(42)
            .owner("elsewhere")
            .crash_consistent(false)
            .warm(false)
            .build()
            .expect("fixture");
        assert_eq!(dbms.snapshot(CENSUS_VIEW).expect("snap").len(), 30);
        // Cold fixture: the first compute has to do the work.
        let (_, src) = dbms
            .compute(
                CENSUS_VIEW,
                "INCOME",
                &StatFunction::Mean,
                AccuracyPolicy::Exact,
            )
            .expect("compute");
        assert_eq!(src, sdbms_core::ComputeSource::Computed);
    }
}
