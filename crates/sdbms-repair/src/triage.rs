//! Corruption triage: damage classified by blast radius.
//!
//! A repair must rebuild the damaged component from a source that does
//! not depend on the damaged bytes. The dependency order follows the
//! paper's Figure 3 derivation chain:
//!
//! ```text
//! raw archive  ─►  view segments  ─►  zone maps
//!      │                └──────────►  summary entries
//!      └ (via Management-DB definition + ChangeRecord replay)
//! ```
//!
//! So zone maps may be rebuilt from segment data, summary entries from
//! view data, but damaged segments (or cells, or the whole view) can
//! only come from the archive — re-deriving the view from its recorded
//! definition and then replaying its update history to restore analyst
//! edits. The rungs themselves, each with the source it reads fixed in
//! code, are `StatDbms::apply_repairs` in `sdbms-core`.

use std::fmt;

/// A component of a concrete view that can be damaged, ordered by
/// blast radius (cheapest repair first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// One cell of one row.
    Cell,
    /// One encoded column segment (256 rows of one attribute).
    Segment,
    /// A persisted per-segment zone map.
    ZoneMap,
    /// One cached Summary-DB entry.
    SummaryEntry,
    /// The whole view (multiple segments, or its file structure).
    WholeView,
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Component::Cell => "cell",
            Component::Segment => "segment",
            Component::ZoneMap => "zone map",
            Component::SummaryEntry => "summary entry",
            Component::WholeView => "whole view",
        })
    }
}
