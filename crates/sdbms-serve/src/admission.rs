//! Per-tenant admission control: token buckets charged in exact
//! integer cost units through the existing I/O accounting.
//!
//! Each tenant owns a bucket of cost **milli-units** that refills at a
//! fixed rate per logical tick (one tick per submitted request,
//! server-wide — deterministic, no wall clock). Admission is checked
//! *before* a request is queued: a non-positive balance is a typed
//! [`ServeError::QuotaExceeded`], so a hot tenant is turned away at
//! the door instead of occupying queue slots and workers. After a
//! request executes, its *actual* cost — the [`CostModel`] price of
//! the [`IoSnapshot`] its scoped counters recorded — is debited, which
//! may overdraw the bucket (the next admission then fails until the
//! refill catches up). Charging actuals keeps the ledger honest:
//! the sum of per-response costs equals the tenant's debited total
//! exactly, which the quota tests assert to the milli-unit.

use std::collections::HashMap;

use sdbms_storage::{CostModel, IoSnapshot};

use crate::error::ServeError;

/// Token-bucket sizing for one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaConfig {
    /// Bucket capacity in cost milli-units (also the starting
    /// balance).
    pub capacity_milli: u64,
    /// Milli-units refilled per logical tick, capped at capacity.
    pub refill_per_tick_milli: u64,
    /// The minimum charge for a request the engine actually executed.
    /// The buffer pool makes resident reads register zero priced I/O
    /// (`pool_hits` are free in the [`CostModel`]), so without a floor
    /// a tenant hammering warm data would never drain its bucket.
    /// Front-cache hits stay free — cacheable behavior is rewarded.
    pub min_charge_milli: u64,
}

impl QuotaConfig {
    /// Effectively no quota: a bucket so deep no workload drains it.
    #[must_use]
    pub fn unlimited() -> Self {
        QuotaConfig {
            capacity_milli: u64::MAX / 4,
            refill_per_tick_milli: u64::MAX / 4,
            min_charge_milli: 100,
        }
    }
}

impl Default for QuotaConfig {
    /// A generous default: 2 000 cost units of burst, refilling 20
    /// units per request tick, 0.1 units minimum per executed request.
    fn default() -> Self {
        QuotaConfig {
            capacity_milli: 2_000_000,
            refill_per_tick_milli: 20_000,
            min_charge_milli: 100,
        }
    }
}

/// A tenant's running account, reported by
/// [`crate::Server::tenant_usage`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Exact merge of every admitted request's I/O counters.
    pub io: IoSnapshot,
    /// Total cost debited, in milli-units.
    pub charged_milli: u64,
    /// Requests admitted past the bucket check.
    pub admitted: u64,
    /// Requests rejected with [`ServeError::QuotaExceeded`].
    pub rejected: u64,
}

struct Bucket {
    balance_milli: i64,
    last_refill_tick: u64,
    usage: TenantUsage,
}

/// The admission controller: one token bucket and usage ledger per
/// tenant, created on first sight at full balance.
pub struct AdmissionController {
    quota: QuotaConfig,
    tenants: HashMap<String, Bucket>,
}

impl AdmissionController {
    /// A controller applying `quota` to every tenant.
    #[must_use]
    pub fn new(quota: QuotaConfig) -> Self {
        AdmissionController {
            quota,
            tenants: HashMap::new(),
        }
    }

    fn bucket(&mut self, tenant: &str) -> &mut Bucket {
        self.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Bucket {
                balance_milli: self.quota.capacity_milli.min(i64::MAX as u64) as i64,
                last_refill_tick: 0,
                usage: TenantUsage::default(),
            })
    }

    fn refill(quota: &QuotaConfig, b: &mut Bucket, now: u64) {
        let elapsed = now.saturating_sub(b.last_refill_tick);
        b.last_refill_tick = b.last_refill_tick.max(now);
        if elapsed == 0 {
            return;
        }
        let refill = elapsed.saturating_mul(quota.refill_per_tick_milli);
        let cap = quota.capacity_milli.min(i64::MAX as u64) as i64;
        b.balance_milli = b
            .balance_milli
            .saturating_add(refill.min(i64::MAX as u64) as i64)
            .min(cap);
    }

    /// Admit or reject a request from `tenant` at logical time `now`.
    /// Refills first; rejects iff the refilled balance is non-positive.
    pub fn try_admit(&mut self, tenant: &str, now: u64) -> Result<(), ServeError> {
        let quota = self.quota;
        let b = self.bucket(tenant);
        Self::refill(&quota, b, now);
        if b.balance_milli <= 0 {
            b.usage.rejected += 1;
            return Err(ServeError::QuotaExceeded {
                tenant: tenant.to_string(),
                balance_milli: b.balance_milli,
                // Ticks-to-positive is known here; the server rescales
                // it to wall milliseconds with its service-time EMA.
                retry_after_ms: Self::ticks_until_positive_from(&quota, b.balance_milli),
            });
        }
        b.usage.admitted += 1;
        Ok(())
    }

    /// Debit an executed request's actual cost and fold its counters
    /// into the tenant's ledger. May overdraw the bucket.
    pub fn charge(&mut self, tenant: &str, io: &IoSnapshot, cost_milli: u64) {
        let b = self.bucket(tenant);
        b.balance_milli = b
            .balance_milli
            .saturating_sub(cost_milli.min(i64::MAX as u64) as i64);
        b.usage.io.merge(io);
        b.usage.charged_milli += cost_milli;
    }

    /// Logical ticks of refill needed to bring `balance_milli` back
    /// above zero: `ceil((1 - balance) / refill)`. Saturates at a
    /// large bound when refill is zero (the bucket will never refill —
    /// "retry much later" is the honest hint).
    fn ticks_until_positive_from(quota: &QuotaConfig, balance_milli: i64) -> u64 {
        if balance_milli > 0 {
            return 0;
        }
        let deficit = 1u64.saturating_add(balance_milli.unsigned_abs());
        if quota.refill_per_tick_milli == 0 {
            return u64::MAX / 2;
        }
        deficit.div_ceil(quota.refill_per_tick_milli)
    }

    /// A tenant's ledger (zeroed default for a never-seen tenant).
    #[must_use]
    pub fn usage(&self, tenant: &str) -> TenantUsage {
        self.tenants
            .get(tenant)
            .map(|b| b.usage.clone())
            .unwrap_or_default()
    }

    /// Current bucket balance in milli-units (full for a never-seen
    /// tenant).
    #[must_use]
    pub fn balance_milli(&self, tenant: &str) -> i64 {
        self.tenants
            .get(tenant)
            .map(|b| b.balance_milli)
            .unwrap_or(self.quota.capacity_milli.min(i64::MAX as u64) as i64)
    }

    /// Every tenant seen so far, sorted by name.
    #[must_use]
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.keys().cloned().collect();
        names.sort();
        names
    }
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("quota", &self.quota)
            .field("tenants", &self.tenants.len())
            .finish()
    }
}

/// Convenience: the default cost model priced against a snapshot.
#[must_use]
pub fn default_cost_milli(io: &IoSnapshot) -> u64 {
    CostModel::default().cost_milli(io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(pages: u64) -> IoSnapshot {
        IoSnapshot {
            page_reads: pages,
            ..IoSnapshot::default()
        }
    }

    #[test]
    fn fresh_tenant_starts_full_and_admits() {
        let mut ac = AdmissionController::new(QuotaConfig {
            capacity_milli: 5_000,
            refill_per_tick_milli: 0,
            min_charge_milli: 0,
        });
        assert!(ac.try_admit("t", 0).is_ok());
        assert_eq!(ac.balance_milli("t"), 5_000);
    }

    #[test]
    fn charges_drain_and_rejections_are_typed() {
        let mut ac = AdmissionController::new(QuotaConfig {
            capacity_milli: 2_500,
            refill_per_tick_milli: 0,
            min_charge_milli: 0,
        });
        assert!(ac.try_admit("t", 0).is_ok());
        ac.charge("t", &io(3), 3_000); // overdraw: 2500 - 3000 = -500
        match ac.try_admit("t", 1) {
            Err(ServeError::QuotaExceeded {
                tenant,
                balance_milli,
                ..
            }) => {
                assert_eq!(tenant, "t");
                assert_eq!(balance_milli, -500);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        let u = ac.usage("t");
        assert_eq!(u.admitted, 1);
        assert_eq!(u.rejected, 1);
        assert_eq!(u.charged_milli, 3_000);
        assert_eq!(u.io.page_reads, 3);
    }

    #[test]
    fn refill_restores_admission_deterministically() {
        let mut ac = AdmissionController::new(QuotaConfig {
            capacity_milli: 1_000,
            refill_per_tick_milli: 100,
            min_charge_milli: 0,
        });
        assert!(ac.try_admit("t", 0).is_ok());
        ac.charge("t", &io(2), 1_500); // balance -500
        assert!(ac.try_admit("t", 1).is_err(), "-500 + 100 = -400");
        assert!(ac.try_admit("t", 5).is_err(), "-400 + 400 = 0, still ≤ 0");
        assert!(ac.try_admit("t", 6).is_ok(), "one more tick goes positive");
        // Refill never exceeds capacity, however long the gap.
        assert!(ac.try_admit("t", 1_000_000).is_ok());
        assert_eq!(ac.balance_milli("t"), 1_000);
    }

    #[test]
    fn refill_caps_at_capacity() {
        let mut ac = AdmissionController::new(QuotaConfig {
            capacity_milli: 1_000,
            refill_per_tick_milli: 100,
            min_charge_milli: 0,
        });
        assert!(ac.try_admit("t", 0).is_ok());
        ac.charge("t", &io(1), 400);
        assert!(ac.try_admit("t", 50).is_ok());
        assert_eq!(ac.balance_milli("t"), 1_000, "capped, not 600 + 5000");
    }

    #[test]
    fn tenants_are_isolated() {
        let mut ac = AdmissionController::new(QuotaConfig {
            capacity_milli: 1_000,
            refill_per_tick_milli: 0,
            min_charge_milli: 0,
        });
        assert!(ac.try_admit("hot", 0).is_ok());
        ac.charge("hot", &io(9), 50_000);
        assert!(ac.try_admit("hot", 1).is_err());
        assert!(ac.try_admit("calm", 1).is_ok(), "another tenant unaffected");
        assert_eq!(ac.usage("calm").rejected, 0);
        assert_eq!(ac.tenants(), vec!["calm".to_string(), "hot".to_string()]);
    }

    #[test]
    fn retry_hint_counts_refill_ticks_to_positive() {
        let mut ac = AdmissionController::new(QuotaConfig {
            capacity_milli: 1_000,
            refill_per_tick_milli: 100,
            min_charge_milli: 0,
        });
        assert!(ac.try_admit("t", 0).is_ok(), "a full bucket admits");
        ac.charge("t", &io(1), 1_500); // balance -500
        match ac.try_admit("t", 0) {
            Err(ServeError::QuotaExceeded { retry_after_ms, .. }) => {
                // Needs 501 milli-units → ceil(501/100) = 6 ticks.
                assert_eq!(retry_after_ms, 6, "try_admit carries the tick count");
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // Zero refill: an honest "much later", not a divide-by-zero.
        let never = QuotaConfig {
            capacity_milli: 10,
            refill_per_tick_milli: 0,
            min_charge_milli: 0,
        };
        let ticks = |balance| AdmissionController::ticks_until_positive_from(&never, balance);
        assert_eq!(ticks(10), 0);
        assert_eq!(ticks(-5), u64::MAX / 2);
    }

    #[test]
    fn ledger_sums_exactly() {
        let mut ac = AdmissionController::new(QuotaConfig::unlimited());
        let mut total = IoSnapshot::default();
        let mut charged = 0u64;
        for i in 0..100 {
            assert!(ac.try_admit("t", i).is_ok());
            let s = io(i % 7);
            let c = default_cost_milli(&s);
            ac.charge("t", &s, c);
            total.merge(&s);
            charged += c;
        }
        let u = ac.usage("t");
        assert_eq!(u.io, total);
        assert_eq!(u.charged_milli, charged);
        assert_eq!(u.admitted, 100);
    }
}
