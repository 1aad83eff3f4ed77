//! Deterministic fault injection for the simulated storage hierarchy.
//!
//! A [`FaultInjector`] sits beside the [`crate::disk::DiskManager`] and
//! [`crate::archive::ArchiveStore`] and is consulted on every I/O. It
//! decides — from a seeded RNG and a per-device [`FaultPlan`], or from
//! explicitly scripted faults — whether the operation should:
//!
//! - fail **transiently** (a retry may succeed; see [`crate::retry`]),
//! - fail **permanently** (the block is lost for good; the id is
//!   remembered and every later read fails too),
//! - be **corrupted** (one bit of the stored data flips; the write
//!   reports success and the damage is only caught by the CRC32
//!   verification on a later read, see [`crate::checksum`]),
//! - or trigger a **crash** (every subsequent operation on the shared
//!   hierarchy fails with [`crate::error::StorageError::Crashed`] until
//!   [`FaultInjector::restart`] is called, modelling a process crash
//!   where buffered-but-unflushed state is lost).
//!
//! Determinism matters more than realism here: the same seed and plan
//! produce the same fault schedule on every run, so chaos tests can
//! replay hundreds of schedules and experiments stay reproducible.

use std::collections::HashSet;

use parking_lot::{Mutex, Rank};

/// Which simulated device an I/O targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// The simulated disk (pages).
    Disk,
    /// The sequential archive (reel blocks).
    Archive,
}

impl Device {
    /// Short device name for error messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Device::Disk => "disk",
            Device::Archive => "archive",
        }
    }
}

/// Direction of an I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A read from the device.
    Read,
    /// A write to the device.
    Write,
}

/// A fault the injector has decided to inject into one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The operation fails, but retrying may succeed.
    Transient,
    /// The target block is lost for good; all later reads fail too.
    Permanent,
    /// The write succeeds but bit `bit` of the stored data is flipped
    /// (without updating the stored checksum).
    Corrupt {
        /// Bit index into the stored data.
        bit: usize,
    },
    /// The operation *succeeds* but takes `units` extra simulated time
    /// units (a stuck actuator, a re-read revolution): the device
    /// charges the delay as backoff and spends it from the ambient
    /// request budget, which is how slow-but-correct I/O eats a
    /// deadline without ever producing a wrong answer.
    Delay {
        /// Extra simulated time units the operation takes.
        units: u64,
    },
    /// The whole hierarchy crashes; everything fails until restart.
    Crash,
}

/// Fault kinds for scripted (non-random) injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail transiently.
    Transient,
    /// Lose the target block permanently.
    Permanent,
    /// Flip one bit of the stored data (write path).
    Corrupt,
    /// Stall the operation for `units` simulated time units; it then
    /// succeeds.
    Delay {
        /// Extra simulated time units the operation takes.
        units: u64,
    },
    /// Crash the hierarchy.
    Crash,
}

/// Per-device fault probabilities (all default to zero).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceFaults {
    /// Probability a read fails transiently.
    pub transient_read: f64,
    /// Probability a write fails transiently.
    pub transient_write: f64,
    /// Probability a write silently flips one stored bit.
    pub corrupt_write: f64,
    /// Probability a read permanently loses the target block.
    pub permanent_read: f64,
    /// Probability a read *succeeds slowly*, charging
    /// [`DeviceFaults::slow_read_units`] extra simulated time units.
    pub slow_read: f64,
    /// Extra time units a slow read takes (ignored while
    /// [`DeviceFaults::slow_read`] is zero; a firing slow read always
    /// charges at least one unit).
    pub slow_read_units: u64,
}

/// A complete, deterministic fault schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG.
    pub seed: u64,
    /// Fault probabilities for disk I/O.
    pub disk: DeviceFaults,
    /// Fault probabilities for archive I/O.
    pub archive: DeviceFaults,
    /// Crash when the global operation counter reaches this value.
    /// One-shot: cleared when it fires so a restart can make progress.
    pub crash_at_op: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }
}

/// A deterministic, explicitly scripted fault.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedFault {
    /// Device the fault applies to.
    pub device: Device,
    /// What happens.
    pub kind: FaultKind,
    /// Restrict to reads or writes (`None` = either).
    pub op: Option<IoOp>,
    /// Restrict to one page id / block index (`None` = any).
    pub target: Option<u64>,
    /// How many matching operations to fault.
    pub remaining: u32,
}

impl ScriptedFault {
    /// Fault the next matching operation once.
    #[must_use]
    pub fn new(device: Device, kind: FaultKind) -> Self {
        ScriptedFault {
            device,
            kind,
            op: None,
            target: None,
            remaining: 1,
        }
    }

    /// Restrict to one I/O direction.
    #[must_use]
    pub fn on(mut self, op: IoOp) -> Self {
        self.op = Some(op);
        self
    }

    /// Restrict to one page id / block index.
    #[must_use]
    pub fn at(mut self, target: u64) -> Self {
        self.target = Some(target);
        self
    }

    /// Fire on the next `n` matching operations.
    #[must_use]
    pub fn times(mut self, n: u32) -> Self {
        self.remaining = n;
        self
    }
}

/// Counts of faults the injector has actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient failures injected.
    pub transient: u64,
    /// Permanent-loss failures surfaced (including repeat reads of an
    /// already-lost block).
    pub permanent: u64,
    /// Silent corruptions injected.
    pub corrupt: u64,
    /// Slow-but-successful operations injected.
    pub delayed: u64,
    /// Crashes triggered.
    pub crashes: u64,
}

struct InjectorState {
    plan: FaultPlan,
    rng: u64,
    ops: u64,
    crashed: bool,
    dead: HashSet<(Device, u64)>,
    scripts: Vec<ScriptedFault>,
    stats: FaultStats,
}

impl InjectorState {
    /// splitmix64: tiny, seedable, and plenty for fault schedules.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next_u64() >> 11) as f64 / 9_007_199_254_740_992.0) < p
    }

    /// Advance the operation counter, honouring crash state and
    /// crash-at-operation-N. Returns true if the hierarchy is down.
    fn tick(&mut self) -> bool {
        if self.crashed {
            return true;
        }
        self.ops += 1;
        if self.plan.crash_at_op.is_some_and(|n| self.ops >= n) {
            self.plan.crash_at_op = None;
            self.crashed = true;
            self.stats.crashes += 1;
            return true;
        }
        false
    }

    /// Turn a scripted kind into a concrete fault, updating state.
    fn fire(&mut self, kind: FaultKind, device: Device, target: u64, len: usize) -> InjectedFault {
        match kind {
            FaultKind::Transient => {
                self.stats.transient += 1;
                InjectedFault::Transient
            }
            FaultKind::Permanent => {
                self.dead.insert((device, target));
                self.stats.permanent += 1;
                InjectedFault::Permanent
            }
            FaultKind::Corrupt => {
                self.stats.corrupt += 1;
                let bits = (len.max(1)) * 8;
                InjectedFault::Corrupt {
                    bit: (self.next_u64() % bits as u64) as usize,
                }
            }
            FaultKind::Delay { units } => {
                self.stats.delayed += 1;
                InjectedFault::Delay {
                    units: units.max(1),
                }
            }
            FaultKind::Crash => {
                self.crashed = true;
                self.stats.crashes += 1;
                InjectedFault::Crash
            }
        }
    }
}

/// Decides, deterministically, which I/O operations fail and how.
///
/// One injector is shared by every device of a [`crate::StorageEnv`] so
/// a crash takes the whole hierarchy down, as a real process crash
/// would.
pub struct FaultInjector {
    inner: Mutex<InjectorState>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.lock();
        f.debug_struct("FaultInjector")
            .field("ops", &st.ops)
            .field("crashed", &st.crashed)
            .field("stats", &st.stats)
            .finish()
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultInjector {
    /// An injector following the given plan.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            inner: Mutex::new(
                Rank::FaultInner,
                InjectorState {
                    rng: plan.seed ^ 0xD1B5_4A32_D192_ED03,
                    plan,
                    ops: 0,
                    crashed: false,
                    dead: HashSet::new(),
                    scripts: Vec::new(),
                    stats: FaultStats::default(),
                },
            ),
        }
    }

    /// An injector that never fires (the default for plain
    /// environments; it costs one mutex lock per I/O).
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(FaultPlan::none())
    }

    /// Replace the active plan (keeps crash state, dead blocks, and
    /// the operation counter).
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut st = self.inner.lock();
        st.rng = plan.seed ^ 0xD1B5_4A32_D192_ED03;
        st.plan = plan;
    }

    /// Queue an explicit fault for the next matching operation(s).
    pub fn script(&self, fault: ScriptedFault) {
        self.inner.lock().scripts.push(fault);
    }

    /// Consult the injector for one device I/O. `target` is the page id
    /// or block index and `len` the data length in bytes (used to pick
    /// a corruption bit). Returns the fault to apply, if any.
    pub fn decide(
        &self,
        device: Device,
        op: IoOp,
        target: u64,
        len: usize,
    ) -> Option<InjectedFault> {
        let mut st = self.inner.lock();
        if st.tick() {
            return Some(InjectedFault::Crash);
        }
        if op == IoOp::Read && st.dead.contains(&(device, target)) {
            st.stats.permanent += 1;
            return Some(InjectedFault::Permanent);
        }
        if let Some(i) = st.scripts.iter().position(|s| {
            s.remaining > 0
                && s.device == device
                && s.op.is_none_or(|o| o == op)
                && s.target.is_none_or(|t| t == target)
        }) {
            st.scripts[i].remaining -= 1;
            let kind = st.scripts[i].kind;
            return Some(st.fire(kind, device, target, len));
        }
        let faults = match device {
            Device::Disk => st.plan.disk,
            Device::Archive => st.plan.archive,
        };
        match op {
            IoOp::Read => {
                if st.chance(faults.permanent_read) {
                    Some(st.fire(FaultKind::Permanent, device, target, len))
                } else if st.chance(faults.transient_read) {
                    Some(st.fire(FaultKind::Transient, device, target, len))
                } else if st.chance(faults.slow_read) {
                    let units = faults.slow_read_units;
                    Some(st.fire(FaultKind::Delay { units }, device, target, len))
                } else {
                    None
                }
            }
            IoOp::Write => {
                if st.chance(faults.transient_write) {
                    Some(st.fire(FaultKind::Transient, device, target, len))
                } else if st.chance(faults.corrupt_write) {
                    Some(st.fire(FaultKind::Corrupt, device, target, len))
                } else {
                    None
                }
            }
        }
    }

    /// Consult the injector for an operation that touches no device
    /// (a buffer-pool hit). Only crash faults apply, but the operation
    /// still advances the global counter so crash-at-operation-N
    /// schedules can land between device I/Os.
    pub fn on_cache_op(&self) -> Option<InjectedFault> {
        let mut st = self.inner.lock();
        if st.tick() {
            Some(InjectedFault::Crash)
        } else {
            None
        }
    }

    /// Crash the hierarchy immediately.
    pub fn crash_now(&self) {
        let mut st = self.inner.lock();
        if !st.crashed {
            st.crashed = true;
            st.stats.crashes += 1;
        }
    }

    /// True while the simulated hierarchy is down.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// Bring the hierarchy back up after a crash. Permanently lost
    /// blocks stay lost (media damage survives restarts); a pending
    /// crash-at-operation-N that already fired does not re-fire.
    pub fn restart(&self) {
        self.inner.lock().crashed = false;
    }

    /// Counts of faults fired so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.inner.lock().stats
    }

    /// Operations observed so far (device I/Os plus cache hits).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.inner.lock().ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        for i in 0..1000 {
            assert_eq!(inj.decide(Device::Disk, IoOp::Read, i, 4096), None);
            assert_eq!(inj.decide(Device::Archive, IoOp::Write, i, 100), None);
        }
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan {
            seed: 42,
            disk: DeviceFaults {
                transient_read: 0.2,
                corrupt_write: 0.1,
                ..DeviceFaults::default()
            },
            ..FaultPlan::default()
        };
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        for i in 0..500 {
            let op = if i % 2 == 0 { IoOp::Read } else { IoOp::Write };
            assert_eq!(
                a.decide(Device::Disk, op, i, 4096),
                b.decide(Device::Disk, op, i, 4096),
                "op {i}"
            );
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().transient > 0, "0.2 over 250 reads must fire");
    }

    #[test]
    fn crash_at_op_is_sticky_until_restart() {
        let inj = FaultInjector::new(FaultPlan {
            crash_at_op: Some(3),
            ..FaultPlan::default()
        });
        assert_eq!(inj.decide(Device::Disk, IoOp::Read, 0, 4096), None);
        assert_eq!(inj.decide(Device::Disk, IoOp::Read, 1, 4096), None);
        assert_eq!(
            inj.decide(Device::Disk, IoOp::Read, 2, 4096),
            Some(InjectedFault::Crash)
        );
        // Everything fails until restart, including cache hits.
        assert_eq!(
            inj.decide(Device::Archive, IoOp::Write, 0, 10),
            Some(InjectedFault::Crash)
        );
        assert_eq!(inj.on_cache_op(), Some(InjectedFault::Crash));
        assert!(inj.is_crashed());
        inj.restart();
        assert!(!inj.is_crashed());
        assert_eq!(inj.decide(Device::Disk, IoOp::Read, 0, 4096), None);
        assert_eq!(inj.stats().crashes, 1);
    }

    #[test]
    fn permanent_loss_persists_across_restart() {
        let inj = FaultInjector::disabled();
        inj.script(ScriptedFault::new(Device::Disk, FaultKind::Permanent).at(7));
        assert_eq!(
            inj.decide(Device::Disk, IoOp::Read, 7, 4096),
            Some(InjectedFault::Permanent)
        );
        inj.restart();
        assert_eq!(
            inj.decide(Device::Disk, IoOp::Read, 7, 4096),
            Some(InjectedFault::Permanent),
            "media damage survives restart"
        );
        assert_eq!(inj.decide(Device::Disk, IoOp::Read, 8, 4096), None);
    }

    #[test]
    fn scripted_fault_respects_op_target_and_count() {
        let inj = FaultInjector::disabled();
        inj.script(
            ScriptedFault::new(Device::Archive, FaultKind::Transient)
                .on(IoOp::Read)
                .at(3)
                .times(2),
        );
        assert_eq!(inj.decide(Device::Archive, IoOp::Write, 3, 10), None);
        assert_eq!(inj.decide(Device::Archive, IoOp::Read, 2, 10), None);
        assert_eq!(
            inj.decide(Device::Archive, IoOp::Read, 3, 10),
            Some(InjectedFault::Transient)
        );
        assert_eq!(
            inj.decide(Device::Archive, IoOp::Read, 3, 10),
            Some(InjectedFault::Transient)
        );
        assert_eq!(inj.decide(Device::Archive, IoOp::Read, 3, 10), None);
    }

    #[test]
    fn scripted_delay_succeeds_slowly_and_is_counted() {
        let inj = FaultInjector::disabled();
        inj.script(ScriptedFault::new(Device::Disk, FaultKind::Delay { units: 7 }).on(IoOp::Read));
        assert_eq!(
            inj.decide(Device::Disk, IoOp::Read, 0, 4096),
            Some(InjectedFault::Delay { units: 7 })
        );
        assert_eq!(inj.decide(Device::Disk, IoOp::Read, 0, 4096), None);
        assert_eq!(inj.stats().delayed, 1);
    }

    #[test]
    fn slow_read_probability_is_deterministic_per_seed() {
        let plan = FaultPlan {
            seed: 11,
            disk: DeviceFaults {
                slow_read: 0.3,
                slow_read_units: 5,
                ..DeviceFaults::default()
            },
            ..FaultPlan::default()
        };
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        let mut fired = 0;
        for i in 0..400 {
            let fa = a.decide(Device::Disk, IoOp::Read, i, 4096);
            assert_eq!(fa, b.decide(Device::Disk, IoOp::Read, i, 4096), "op {i}");
            if let Some(InjectedFault::Delay { units }) = fa {
                assert_eq!(units, 5);
                fired += 1;
            }
        }
        assert!(fired > 0, "0.3 over 400 reads must fire");
        assert_eq!(a.stats().delayed, fired);
    }

    #[test]
    fn corrupt_picks_bit_within_data() {
        let inj = FaultInjector::disabled();
        inj.script(ScriptedFault::new(Device::Disk, FaultKind::Corrupt).times(50));
        for i in 0..50 {
            match inj.decide(Device::Disk, IoOp::Write, i, 100) {
                Some(InjectedFault::Corrupt { bit }) => assert!(bit < 800),
                other => panic!("expected corruption, got {other:?}"),
            }
        }
    }
}
