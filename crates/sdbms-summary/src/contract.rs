//! Maintenance contracts for summary functions.
//!
//! §4.2 classifies functions by how their cached results react to
//! updates; this module turns that classification into an explicit,
//! *checkable* contract: for every [`UpdateKind`] a function must
//! declare a [`MaintenanceStrategy`], and a function that declares
//! itself incremental must have auxiliary state with a **verified
//! merge law** — merging per-partition states must equal a single
//! pass over the concatenated data. [`verify_merge_law`] is the
//! executable oracle for that law; the `sdbms-lint` soundness checker
//! audits a whole [`SummaryRegistry`] against it.

use std::fmt;

use sdbms_columnar::zonemap::ZoneMap;
use sdbms_data::Value;

use crate::function::{MaintenanceClass, StatFunction};

/// The kinds of update a concrete view can see (§4's update model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateKind {
    /// A new row appears.
    Insert,
    /// A row disappears.
    Delete,
    /// An existing value is replaced in place.
    Overwrite,
}

/// All update kinds, in declaration order.
pub const ALL_UPDATE_KINDS: [UpdateKind; 3] = [
    UpdateKind::Insert,
    UpdateKind::Delete,
    UpdateKind::Overwrite,
];

impl fmt::Display for UpdateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UpdateKind::Insert => "insert",
            UpdateKind::Delete => "delete",
            UpdateKind::Overwrite => "overwrite",
        })
    }
}

/// What the engine does to a cached entry when an update of some kind
/// arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenanceStrategy {
    /// Exact O(1) delta on constant-size auxiliary state (§4.2 finite
    /// differencing).
    IncrementalDelta,
    /// Usually a delta; degenerate cases (deleting the extreme,
    /// window exhaustion) force a partial rescan.
    IncrementalOrRescan,
    /// Regenerate the entry eagerly from data.
    Regenerate,
    /// Mark stale, recompute lazily on next lookup (§4.3 fallback).
    Invalidate,
}

impl fmt::Display for MaintenanceStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MaintenanceStrategy::IncrementalDelta => "incremental-delta",
            MaintenanceStrategy::IncrementalOrRescan => "incremental-or-rescan",
            MaintenanceStrategy::Regenerate => "regenerate",
            MaintenanceStrategy::Invalidate => "invalidate",
        })
    }
}

impl MaintenanceStrategy {
    /// Does this strategy rely on incremental auxiliary state?
    #[must_use]
    pub fn is_incremental(&self) -> bool {
        matches!(
            self,
            MaintenanceStrategy::IncrementalDelta | MaintenanceStrategy::IncrementalOrRescan
        )
    }
}

/// One function's declared maintenance behaviour: a strategy per
/// update kind, plus whether the function claims incremental
/// maintainability (and therefore owes a merge law).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionContract {
    /// The function this contract covers.
    pub function: StatFunction,
    /// Whether the function claims to be incrementally maintainable.
    pub declared_incremental: bool,
    strategies: Vec<(UpdateKind, MaintenanceStrategy)>,
}

impl FunctionContract {
    /// An empty contract (no strategies declared) — the raw material
    /// for hand-built registrations and for the soundness checker's
    /// negative fixtures.
    #[must_use]
    pub fn new(function: StatFunction, declared_incremental: bool) -> Self {
        FunctionContract {
            function,
            declared_incremental,
            strategies: Vec::new(),
        }
    }

    /// Declare (or replace) the strategy for one update kind.
    #[must_use]
    pub fn with(mut self, kind: UpdateKind, strategy: MaintenanceStrategy) -> Self {
        self.strategies.retain(|(k, _)| *k != kind);
        self.strategies.push((kind, strategy));
        self
    }

    /// The strategy declared for one update kind, if any.
    #[must_use]
    pub fn strategy_for(&self, kind: UpdateKind) -> Option<MaintenanceStrategy> {
        self.strategies
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
    }

    /// The canonical contract implied by the function's
    /// [`MaintenanceClass`]. Every standing function gets its contract
    /// from here; the checker then confirms the implication was sound.
    #[must_use]
    pub fn derived(function: &StatFunction) -> Self {
        use MaintenanceStrategy::{IncrementalDelta, IncrementalOrRescan, Invalidate};
        let class = function.maintenance_class();
        let (ins, del, ovw, incremental) = match class {
            MaintenanceClass::Differentiable => {
                (IncrementalDelta, IncrementalDelta, IncrementalDelta, true)
            }
            // Inserting never disturbs an extreme; removing (or
            // overwriting) the extreme forces a rescan.
            MaintenanceClass::SemiDifferentiable => (
                IncrementalDelta,
                IncrementalOrRescan,
                IncrementalOrRescan,
                true,
            ),
            MaintenanceClass::OrderStatistic => {
                if matches!(function, StatFunction::Median | StatFunction::Quantile(500)) {
                    // The §4.2 median window absorbs updates until it
                    // runs off an edge, then rescans. Order-dependent
                    // state: *not* mergeable, hence not "incremental"
                    // in the contract sense.
                    (
                        IncrementalOrRescan,
                        IncrementalOrRescan,
                        IncrementalOrRescan,
                        false,
                    )
                } else {
                    (Invalidate, Invalidate, Invalidate, false)
                }
            }
            MaintenanceClass::Distributional => {
                (IncrementalDelta, IncrementalDelta, IncrementalDelta, true)
            }
            MaintenanceClass::NonIncremental => (Invalidate, Invalidate, Invalidate, false),
        };
        FunctionContract::new(function.clone(), incremental)
            .with(UpdateKind::Insert, ins)
            .with(UpdateKind::Delete, del)
            .with(UpdateKind::Overwrite, ovw)
    }
}

/// A maintained *physical* statistic — auxiliary structures the
/// engine keeps consistent under updates that are not summary
/// functions (per-segment zone maps, for one). The contract shape
/// mirrors [`FunctionContract`] so the soundness checker audits both
/// with the same rules: a strategy per [`UpdateKind`], and a verified
/// merge law when the statistic claims one.
#[derive(Debug, Clone)]
pub struct StatisticContract {
    /// Stable name of the statistic (diagnostic subject).
    pub name: &'static str,
    /// Whether per-partition states claim an exact merge law (zone
    /// maps do: per-segment maps merge into range statistics at read
    /// time, and the merge must equal a build over the concatenation).
    pub declared_incremental: bool,
    strategies: Vec<(UpdateKind, MaintenanceStrategy)>,
    /// Executable oracle for the claimed merge law.
    verify: fn() -> MergeLawStatus,
}

impl StatisticContract {
    /// A contract with no strategies declared yet.
    #[must_use]
    pub fn new(
        name: &'static str,
        declared_incremental: bool,
        verify: fn() -> MergeLawStatus,
    ) -> Self {
        StatisticContract {
            name,
            declared_incremental,
            strategies: Vec::new(),
            verify,
        }
    }

    /// Declare (or replace) the strategy for one update kind.
    #[must_use]
    pub fn with(mut self, kind: UpdateKind, strategy: MaintenanceStrategy) -> Self {
        self.strategies.retain(|(k, _)| *k != kind);
        self.strategies.push((kind, strategy));
        self
    }

    /// The strategy declared for one update kind, if any.
    #[must_use]
    pub fn strategy_for(&self, kind: UpdateKind) -> Option<MaintenanceStrategy> {
        self.strategies
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
    }

    /// Run the statistic's merge-law oracle.
    #[must_use]
    pub fn verify_merge_law(&self) -> MergeLawStatus {
        (self.verify)()
    }
}

/// Executable merge law for [`ZoneMap`]: merging per-partition maps
/// must reproduce the map built over the concatenated values — for
/// every field, including run counts across the seam and the
/// distinct-set cap. This is what licenses `range_stats` to combine
/// per-segment maps into morsel-level pruning decisions.
#[must_use]
pub fn verify_zone_map_merge_law() -> MergeLawStatus {
    // Mixed deterministic column: runs, missing values, codes, floats.
    let mut state = 0x5A4D_0001u64;
    let mut whole = Vec::with_capacity(160);
    for i in 0..160usize {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let draw = (state >> 33) % 100;
        whole.push(match draw {
            0..=14 => Value::Missing,
            15..=44 => Value::Code((draw % 5) as u32),
            45..=59 => Value::Float(draw as f64 / 3.0),
            // Plateaus of i/20 give genuine runs spanning cut points.
            _ => Value::Int((i / 20) as i64),
        });
    }
    let direct = ZoneMap::build(&whole);
    for cut in [0usize, 1, 37, 80, 159, 160] {
        let (a, b) = whole.split_at(cut);
        let mut merged = ZoneMap::build(a);
        merged.merge(&ZoneMap::build(b));
        if merged != direct {
            return MergeLawStatus::Mismatch(format!(
                "cut {cut}: merged map disagrees with single-pass build"
            ));
        }
    }
    MergeLawStatus::Verified
}

/// The contract the engine actually implements for per-segment zone
/// maps: every write regenerates the touched segment's map (writers
/// invalidate before touching data and re-persist after), and the
/// read path merges per-segment maps under the verified merge law.
#[must_use]
pub fn zone_map_contract() -> StatisticContract {
    StatisticContract::new("segment-zone-map", true, verify_zone_map_merge_law)
        .with(UpdateKind::Insert, MaintenanceStrategy::Regenerate)
        .with(UpdateKind::Delete, MaintenanceStrategy::Regenerate)
        .with(UpdateKind::Overwrite, MaintenanceStrategy::Regenerate)
}

/// The registry the soundness checker audits: every function the
/// Summary Database will maintain, each with its contract, plus the
/// maintained physical statistics.
#[derive(Debug, Clone, Default)]
pub struct SummaryRegistry {
    contracts: Vec<FunctionContract>,
    statistics: Vec<StatisticContract>,
}

impl SummaryRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry of the §3.2 standing summary set, each function
    /// under its derived contract, plus the engine's maintained
    /// physical statistics (the per-segment zone maps).
    #[must_use]
    pub fn standing() -> Self {
        let mut r = Self::new();
        for f in crate::function::standing_summary_functions() {
            r.register(FunctionContract::derived(&f));
        }
        r.register_statistic(zone_map_contract());
        r
    }

    /// Add (or replace) a contract.
    pub fn register(&mut self, contract: FunctionContract) {
        self.contracts.retain(|c| c.function != contract.function);
        self.contracts.push(contract);
    }

    /// All registered contracts, in registration order.
    #[must_use]
    pub fn contracts(&self) -> &[FunctionContract] {
        &self.contracts
    }

    /// Add (or replace) a physical-statistic contract.
    pub fn register_statistic(&mut self, contract: StatisticContract) {
        self.statistics.retain(|c| c.name != contract.name);
        self.statistics.push(contract);
    }

    /// All registered physical-statistic contracts.
    #[must_use]
    pub fn statistics(&self) -> &[StatisticContract] {
        &self.statistics
    }
}

/// The outcome of checking one function's merge law.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeLawStatus {
    /// Merged per-partition state reproduced the single-pass result.
    Verified,
    /// The function builds no auxiliary state at all.
    NoAuxiliaryState,
    /// The states exist but refuse to merge (no merge law).
    Unmergeable(String),
    /// The merge succeeded but the answer disagreed with a single pass
    /// over the concatenated data — the law is *wrong*, not missing.
    Mismatch(String),
}

impl MergeLawStatus {
    /// Did the law hold?
    #[must_use]
    pub fn verified(&self) -> bool {
        *self == MergeLawStatus::Verified
    }
}

/// Deterministic pseudo-random column (an LCG — no external RNG, no
/// wall clock) with a bounded value domain so the frequency-table aux
/// stays under [`crate::function::MAX_FREQ_AUX_DISTINCT`].
fn lcg_column(seed: u64, n: usize) -> Vec<Value> {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // 0..=40, offset so halves have overlapping but distinct mixes.
        out.push(Value::Int(((state >> 33) % 41) as i64));
    }
    out
}

/// Execute the merge law for one function: build auxiliary state over
/// two halves of a deterministic column, merge, and compare the merged
/// answer against a single computation over the concatenation.
///
/// Histograms get the same treatment the engine gives them
/// ([`StatFunction::aux_state`] derives bin edges from the whole
/// column's profile, never per partition), so both halves are filled
/// against shared edges.
#[must_use]
pub fn verify_merge_law(function: &StatFunction) -> MergeLawStatus {
    let whole = lcg_column(0xA5EE_D001, 96);
    let (left, right) = whole.split_at(48);

    let (mut aux, other) = if let StatFunction::Histogram(bins) = function {
        // Shared edges from the whole column's range, per-half fills.
        let nums = |vs: &[Value]| -> Vec<f64> { vs.iter().filter_map(Value::as_f64).collect() };
        let all = nums(&whole);
        let (lo, hi) = all
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        // The same epsilon padding Histogram::from_data applies, so the
        // whole column's maximum lands in the last bin, not in `above`,
        // and the comparison against the direct computation is edge-exact.
        let hi = if lo == hi { lo + 1.0 } else { hi };
        let hi = hi + (hi - lo) * 1e-9;
        let mk = |vs: &[f64]| -> Option<crate::function::AuxState> {
            let mut h = sdbms_stats::Histogram::with_range(lo, hi, usize::from(*bins)).ok()?;
            for &x in vs {
                h.add(x);
            }
            Some(crate::function::AuxState::Histo(h))
        };
        match (mk(&nums(left)), mk(&nums(right))) {
            (Some(a), Some(b)) => (a, b),
            _ => return MergeLawStatus::NoAuxiliaryState,
        }
    } else {
        match (function.build_aux(left), function.build_aux(right)) {
            (Some(a), Some(b)) => (a, b),
            _ => return MergeLawStatus::NoAuxiliaryState,
        }
    };

    if let Err(e) = aux.merge(&other) {
        return MergeLawStatus::Unmergeable(e.to_string());
    }
    let Some(merged) = function.result_from_aux(&aux) else {
        return MergeLawStatus::Mismatch("merged state cannot answer".to_string());
    };
    let direct = match function.compute(&whole) {
        Ok(v) => v,
        Err(e) => return MergeLawStatus::Mismatch(format!("direct computation failed: {e}")),
    };
    // Histogram bin edges differ between from_data (per-column range)
    // and the shared-range fill only by floating-point noise; compare
    // through the same tolerance the maintenance engine uses.
    if merged.approx_eq(&direct, 1e-9) {
        MergeLawStatus::Verified
    } else {
        MergeLawStatus::Mismatch(format!("merged {merged:?} != direct {direct:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_contract_covers_all_kinds() {
        for f in crate::function::standing_summary_functions() {
            let c = FunctionContract::derived(&f);
            for k in ALL_UPDATE_KINDS {
                assert!(c.strategy_for(k).is_some(), "{f} lacks {k}");
            }
        }
    }

    #[test]
    fn differentiable_is_incremental_everywhere() {
        let c = FunctionContract::derived(&StatFunction::Mean);
        assert!(c.declared_incremental);
        for k in ALL_UPDATE_KINDS {
            assert_eq!(
                c.strategy_for(k),
                Some(MaintenanceStrategy::IncrementalDelta)
            );
        }
    }

    #[test]
    fn min_rescans_on_delete_only() {
        let c = FunctionContract::derived(&StatFunction::Min);
        assert_eq!(
            c.strategy_for(UpdateKind::Insert),
            Some(MaintenanceStrategy::IncrementalDelta)
        );
        assert_eq!(
            c.strategy_for(UpdateKind::Delete),
            Some(MaintenanceStrategy::IncrementalOrRescan)
        );
    }

    #[test]
    fn trimmed_mean_invalidates() {
        let c = FunctionContract::derived(&StatFunction::TrimmedMean(50, 950));
        assert!(!c.declared_incremental);
        assert_eq!(
            c.strategy_for(UpdateKind::Overwrite),
            Some(MaintenanceStrategy::Invalidate)
        );
    }

    #[test]
    fn merge_law_holds_for_incremental_functions() {
        for f in [
            StatFunction::Count,
            StatFunction::Sum,
            StatFunction::Mean,
            StatFunction::Variance,
            StatFunction::StdDev,
            StatFunction::Min,
            StatFunction::Max,
            StatFunction::Mode,
            StatFunction::UniqueCount,
            StatFunction::Histogram(8),
        ] {
            let status = verify_merge_law(&f);
            assert!(status.verified(), "{f}: {status:?}");
        }
    }

    #[test]
    fn median_window_has_no_merge_law() {
        assert_eq!(
            verify_merge_law(&StatFunction::Median),
            MergeLawStatus::Unmergeable(
                "auxiliary states cannot be merged: median window is order-dependent".into()
            )
        );
    }

    #[test]
    fn non_incremental_has_no_aux() {
        assert_eq!(
            verify_merge_law(&StatFunction::TrimmedMean(50, 950)),
            MergeLawStatus::NoAuxiliaryState
        );
    }

    #[test]
    fn standing_registry_is_sound() {
        for c in SummaryRegistry::standing().contracts() {
            if c.declared_incremental {
                assert!(
                    verify_merge_law(&c.function).verified(),
                    "{} declared incremental without a merge law",
                    c.function
                );
            }
        }
    }

    #[test]
    fn zone_map_contract_covers_all_kinds_and_verifies() {
        let c = zone_map_contract();
        for k in ALL_UPDATE_KINDS {
            assert_eq!(c.strategy_for(k), Some(MaintenanceStrategy::Regenerate));
        }
        assert!(c.declared_incremental);
        assert!(c.verify_merge_law().verified());
    }

    #[test]
    fn standing_registry_includes_zone_maps() {
        let r = SummaryRegistry::standing();
        assert!(r.statistics().iter().any(|s| s.name == "segment-zone-map"));
    }

    #[test]
    fn statistic_registry_replaces_on_reregister() {
        let mut r = SummaryRegistry::new();
        r.register_statistic(zone_map_contract());
        r.register_statistic(StatisticContract::new(
            "segment-zone-map",
            false,
            verify_zone_map_merge_law,
        ));
        assert_eq!(r.statistics().len(), 1);
        assert!(!r.statistics()[0].declared_incremental);
    }

    #[test]
    fn registry_replaces_on_reregister() {
        let mut r = SummaryRegistry::new();
        r.register(FunctionContract::derived(&StatFunction::Mean));
        r.register(FunctionContract::new(StatFunction::Mean, false));
        assert_eq!(r.contracts().len(), 1);
        assert!(!r.contracts()[0].declared_incremental);
    }
}
