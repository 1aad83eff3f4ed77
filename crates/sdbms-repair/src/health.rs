//! Per-view health states and the registry that drives repair policy.
//!
//! Every concrete view is *derived* state (paper Figure 3): the raw
//! database on archive is authoritative, so damage to a view is never
//! fatal as long as the archive survives. The health registry encodes
//! that stance as a small state machine per view:
//!
//! ```text
//! Healthy --detect--> Degraded --admit--> Repairing --verify--> Healthy
//!                        ^                    |
//!                        +----repair failed---+  (attempts++, backoff)
//!                                             |
//!                                             v
//!                                       Unrecoverable   (archive damage
//!                                                        or retries spent)
//! ```
//!
//! While a view is `Degraded` or `Repairing`, reads are still admitted
//! — served from the raw archive as `ComputeSource::Fallback` results
//! that are **never cached**, preserving the invariant that the Summary
//! DB only ever holds values computed from healthy view data.
//!
//! Retries are bounded: each failed repair attempt doubles a backoff
//! window measured in injector operation counts (the repo's logical
//! clock — wall time would be nondeterministic under the fault
//! injector's seeded schedules). When the attempt budget is spent, or
//! the authoritative archive itself fails its checksum, the view is
//! marked [`ViewHealth::Unrecoverable`].

use std::collections::BTreeMap;
use std::fmt;

/// Most repair attempts allowed before a view is declared
/// [`ViewHealth::Unrecoverable`].
pub const MAX_REPAIR_ATTEMPTS: u32 = 4;

/// Base backoff window after a failed repair, in injector operations.
/// Doubled per failed attempt: 16, 32, 64, ...
pub const BACKOFF_BASE_OPS: u64 = 16;

/// Health of one concrete view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewHealth {
    /// No known damage; reads served normally from the view + cache.
    Healthy,
    /// Damage detected but repair not yet running (or last attempt
    /// failed and the view is in backoff). Reads are admitted in
    /// degraded mode: recomputed from the raw archive, never cached.
    Degraded,
    /// A repair is in flight. Reads degrade exactly as in `Degraded`.
    Repairing,
    /// Repair is impossible: the authoritative archive copy failed its
    /// own checksum, or every permitted attempt was spent.
    Unrecoverable,
}

impl ViewHealth {
    /// Whether a read against this view should be served in degraded
    /// mode — recomputed from the raw archive as a
    /// `ComputeSource::Fallback` result, never cached — rather than
    /// from the (possibly damaged) view itself. This is the health
    /// states' half of the serving layer's lifecycle decision: a
    /// fallback-eligible view bypasses the per-view circuit breaker
    /// entirely, because the degraded path is already the safe,
    /// engine-avoiding route (DESIGN.md §16).
    #[must_use]
    pub fn can_serve_fallback(self) -> bool {
        matches!(self, ViewHealth::Degraded | ViewHealth::Repairing)
    }
}

impl fmt::Display for ViewHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViewHealth::Healthy => "healthy",
            ViewHealth::Degraded => "degraded",
            ViewHealth::Repairing => "repairing",
            ViewHealth::Unrecoverable => "unrecoverable",
        })
    }
}

/// Why [`HealthRegistry::begin_repair`] refused to start a repair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairGate {
    /// The view spent its [`MAX_REPAIR_ATTEMPTS`] budget.
    AttemptsExhausted {
        /// Attempts already made.
        attempts: u32,
    },
    /// The view is in post-failure backoff until the given op count.
    BackingOff {
        /// Injector op count at which the next attempt is admitted.
        until_ops: u64,
    },
    /// The view was already declared unrecoverable.
    Unrecoverable,
}

impl fmt::Display for RepairGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairGate::AttemptsExhausted { attempts } => {
                write!(f, "repair attempt budget spent ({attempts} attempts)")
            }
            RepairGate::BackingOff { until_ops } => {
                write!(f, "in repair backoff until op {until_ops}")
            }
            RepairGate::Unrecoverable => f.write_str("view is unrecoverable"),
        }
    }
}

/// Health bookkeeping for one view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthRecord {
    /// Current state.
    pub state: ViewHealth,
    /// Failed repair attempts so far (reset on success).
    pub attempts: u32,
    /// Injector op count before which no new repair is admitted.
    pub backoff_until_ops: u64,
    /// Human-readable description of the last detected damage.
    pub last_finding: Option<String>,
}

impl HealthRecord {
    fn healthy() -> Self {
        HealthRecord {
            state: ViewHealth::Healthy,
            attempts: 0,
            backoff_until_ops: 0,
            last_finding: None,
        }
    }
}

/// Registry of per-view [`HealthRecord`]s with the transition rules.
///
/// Views absent from the registry are implicitly [`ViewHealth::Healthy`]
/// — the registry only materializes a record once damage is seen, so a
/// freshly-built DBMS carries no health state at all.
#[derive(Debug, Default, Clone)]
pub struct HealthRegistry {
    records: BTreeMap<String, HealthRecord>,
}

impl HealthRegistry {
    /// Empty registry: every view healthy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current health of `view` (implicitly healthy when untracked).
    #[must_use]
    pub fn health(&self, view: &str) -> ViewHealth {
        self.records
            .get(view)
            .map_or(ViewHealth::Healthy, |r| r.state)
    }

    /// True while reads of `view` must degrade to archive fallback
    /// (and their results must not be cached).
    #[must_use]
    pub fn is_impaired(&self, view: &str) -> bool {
        matches!(
            self.health(view),
            ViewHealth::Degraded | ViewHealth::Repairing | ViewHealth::Unrecoverable
        )
    }

    /// Record detected damage: `Healthy` → `Degraded` with the finding
    /// noted. States past `Degraded` keep their state (a scrub finding
    /// during an active repair must not yank the state backwards) but
    /// still refresh `last_finding`.
    pub fn mark_degraded(&mut self, view: &str, finding: &str) {
        let rec = self
            .records
            .entry(view.to_owned())
            .or_insert_with(HealthRecord::healthy);
        if matches!(rec.state, ViewHealth::Healthy | ViewHealth::Degraded) {
            rec.state = ViewHealth::Degraded;
        }
        rec.last_finding = Some(finding.to_owned());
    }

    /// Admit a repair attempt at logical time `now_ops`, transitioning
    /// to `Repairing`, or explain why it is refused.
    pub fn begin_repair(&mut self, view: &str, now_ops: u64) -> Result<(), RepairGate> {
        let rec = self
            .records
            .entry(view.to_owned())
            .or_insert_with(HealthRecord::healthy);
        match rec.state {
            ViewHealth::Unrecoverable => return Err(RepairGate::Unrecoverable),
            ViewHealth::Repairing => return Ok(()), // already admitted (resume)
            ViewHealth::Healthy | ViewHealth::Degraded => {}
        }
        if rec.attempts >= MAX_REPAIR_ATTEMPTS {
            let attempts = rec.attempts;
            rec.state = ViewHealth::Unrecoverable;
            return Err(RepairGate::AttemptsExhausted { attempts });
        }
        if now_ops < rec.backoff_until_ops {
            return Err(RepairGate::BackingOff {
                until_ops: rec.backoff_until_ops,
            });
        }
        rec.state = ViewHealth::Repairing;
        Ok(())
    }

    /// A repair verified clean: back to `Healthy`, counters reset.
    pub fn repair_succeeded(&mut self, view: &str) {
        self.records
            .insert(view.to_owned(), HealthRecord::healthy());
    }

    /// A repair attempt failed at logical time `now_ops`: back to
    /// `Degraded` with the attempt counted and an exponentially grown
    /// backoff window armed ([`BACKOFF_BASE_OPS`] ≪ attempts).
    pub fn repair_failed(&mut self, view: &str, now_ops: u64, reason: &str) {
        let rec = self
            .records
            .entry(view.to_owned())
            .or_insert_with(HealthRecord::healthy);
        if matches!(rec.state, ViewHealth::Unrecoverable) {
            return;
        }
        rec.attempts += 1;
        if rec.attempts >= MAX_REPAIR_ATTEMPTS {
            rec.state = ViewHealth::Unrecoverable;
        } else {
            rec.state = ViewHealth::Degraded;
        }
        let shift = rec.attempts.min(16);
        rec.backoff_until_ops = now_ops + (BACKOFF_BASE_OPS << shift);
        rec.last_finding = Some(reason.to_owned());
    }

    /// The authoritative archive copy itself is damaged (or the retry
    /// budget is spent): the view can never be repaired.
    pub fn mark_unrecoverable(&mut self, view: &str, reason: &str) {
        let rec = self
            .records
            .entry(view.to_owned())
            .or_insert_with(HealthRecord::healthy);
        rec.state = ViewHealth::Unrecoverable;
        rec.last_finding = Some(reason.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untracked_views_are_healthy() {
        let reg = HealthRegistry::new();
        assert_eq!(reg.health("v"), ViewHealth::Healthy);
        assert!(!reg.is_impaired("v"));
        assert!(!reg.records.contains_key("v"));
    }

    #[test]
    fn degrade_then_repair_round_trip() {
        let mut reg = HealthRegistry::new();
        reg.mark_degraded("v", "bad page 3");
        assert_eq!(reg.health("v"), ViewHealth::Degraded);
        assert!(reg.is_impaired("v"));
        reg.begin_repair("v", 0).unwrap();
        assert_eq!(reg.health("v"), ViewHealth::Repairing);
        assert!(reg.is_impaired("v"));
        reg.repair_succeeded("v");
        assert_eq!(reg.health("v"), ViewHealth::Healthy);
        assert_eq!(reg.records.get("v").unwrap().attempts, 0);
    }

    #[test]
    fn failed_repairs_back_off_exponentially_then_exhaust() {
        let mut reg = HealthRegistry::new();
        reg.mark_degraded("v", "bad");
        let mut now = 0u64;
        for attempt in 1..MAX_REPAIR_ATTEMPTS {
            reg.begin_repair("v", now).unwrap();
            reg.repair_failed("v", now, "still bad");
            let rec = reg.records.get("v").unwrap().clone();
            assert_eq!(rec.attempts, attempt);
            assert_eq!(
                rec.backoff_until_ops,
                now + (BACKOFF_BASE_OPS << attempt),
                "backoff doubles per attempt"
            );
            // Too early: refused with the backoff deadline.
            assert!(matches!(
                reg.begin_repair("v", now),
                Err(RepairGate::BackingOff { .. })
            ));
            now = rec.backoff_until_ops;
        }
        reg.begin_repair("v", now).unwrap();
        reg.repair_failed("v", now, "still bad");
        assert_eq!(reg.health("v"), ViewHealth::Unrecoverable);
        assert!(matches!(
            reg.begin_repair("v", u64::MAX),
            Err(RepairGate::Unrecoverable)
        ));
    }

    #[test]
    fn scrub_finding_does_not_demote_active_repair() {
        let mut reg = HealthRegistry::new();
        reg.mark_degraded("v", "first");
        reg.begin_repair("v", 0).unwrap();
        reg.mark_degraded("v", "second");
        assert_eq!(reg.health("v"), ViewHealth::Repairing);
        assert_eq!(
            reg.records.get("v").unwrap().last_finding.as_deref(),
            Some("second")
        );
    }

    #[test]
    fn begin_repair_is_reentrant_while_repairing() {
        let mut reg = HealthRegistry::new();
        reg.mark_degraded("v", "bad");
        reg.begin_repair("v", 0).unwrap();
        reg.begin_repair("v", 0).unwrap();
        assert_eq!(reg.health("v"), ViewHealth::Repairing);
    }

    #[test]
    fn unrecoverable_is_terminal() {
        let mut reg = HealthRegistry::new();
        reg.mark_unrecoverable("v", "archive checksum failed");
        reg.repair_failed("v", 0, "ignored");
        reg.mark_degraded("v", "ignored");
        assert_eq!(reg.health("v"), ViewHealth::Unrecoverable);
    }

    #[test]
    fn fallback_eligibility_covers_exactly_the_repairable_damage_states() {
        assert!(!ViewHealth::Healthy.can_serve_fallback());
        assert!(ViewHealth::Degraded.can_serve_fallback());
        assert!(ViewHealth::Repairing.can_serve_fallback());
        assert!(!ViewHealth::Unrecoverable.can_serve_fallback());
    }
}
