//! Shared deterministic test/bench/demo machinery.
//!
//! Before this crate existed, the seeded `splitmix` PRNG, the census
//! fixture builder, and the "bump INCOME where AGE > t" update step
//! were copy-pasted across `tests/chaos.rs`,
//! `tests/crash_recovery_props.rs`, `examples/fault_tolerance.rs`, and
//! the benches — four slightly diverging copies of the same intent.
//! The serving tests' closed-loop traffic generator and the benchmark
//! need the same helpers again, so they live here once:
//!
//! - [`rng`] — the splitmix64 PRNG every seeded schedule uses, plus a
//!   deterministic Zipfian sampler for skewed query mixes;
//! - [`fixtures`] — the census-view DBMS builder (rows, pool size,
//!   durability, summary warm-up) shared by the chaos, recovery,
//!   serving, and example workloads;
//! - [`workload`] — seeded update steps (predicate + assignments) in
//!   the three forms callers need: `update_where` arguments, staged
//!   [`sdbms_core::BatchOp`]s, and raw parts.
//!
//! Everything here is deterministic: same seed, same bytes. Builders
//! return `Result` rather than panicking so library callers stay
//! panic-free; tests `.expect()` at the call site.

pub mod fixtures;
pub mod rng;
pub mod workload;

pub use fixtures::{
    agrees, checked_functions, CensusFixture, CENSUS_ATTRS, CENSUS_SOURCE, CENSUS_VIEW,
};
pub use rng::{percentile, splitmix, unit, SplitMix64, Zipfian};
pub use workload::{seeded_income_update, IncomeUpdate};
