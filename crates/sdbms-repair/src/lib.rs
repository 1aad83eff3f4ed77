//! # sdbms-repair — self-healing machinery for derived view state
//!
//! The paper's Figure 3 organization makes every concrete view
//! *derived*: the raw database on archive storage is authoritative,
//! the Management Database records each view's definition and full
//! update history, and the Summary Database is a cache over the view.
//! That redundancy is exactly what repair needs — anything below the
//! archive can be rebuilt, and this crate supplies the policy pieces:
//!
//! - [`health`] — per-view `Healthy/Degraded/Repairing/Unrecoverable`
//!   states with bounded retries and exponential backoff, driving how
//!   reads are admitted while damage is outstanding.
//! - [`triage`] — damage classified by blast radius (cell → segment →
//!   zone map → summary entry → whole view). Which source each repair
//!   reads from is fixed where the repair runs, in `sdbms-core`.
//! - [`scrub`] — scrub cursor + durable cursor store (crash-survivable
//!   resume point) and the finding/report types of a scrub pass.
//!
//! The walk and repair drivers themselves live in `sdbms-core`
//! (`StatDbms::scrub`, `StatDbms::repair_view`, `StatDbms::health`),
//! which wires these policies to the actual views, caches, WAL, and
//! history store.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod health;
pub mod scrub;
pub mod triage;

pub use health::{
    HealthRecord, HealthRegistry, RepairGate, ViewHealth, BACKOFF_BASE_OPS, MAX_REPAIR_ATTEMPTS,
};
pub use scrub::{CorruptionFinding, CursorStore, ScrubCursor, ScrubPhase, ScrubReport};
pub use triage::Component;
