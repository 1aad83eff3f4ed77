//! Structured lint diagnostics.
//!
//! Every finding of the token-level source lints is a [`Diagnostic`]:
//! a lint id from the fixed catalogue below, a `file:line` anchor, and
//! a human-readable message. The driver sorts, prints, and turns them
//! into an exit code under `--deny-all` / `--allow <id>`.

use std::fmt;

/// A lint in the catalogue: id, default severity, one-line description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lint {
    /// Stable kebab-case id (`no-panic`, `lossy-cast`, …).
    pub id: &'static str,
    /// What the lint enforces.
    pub description: &'static str,
}

/// `no-panic`: no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
/// `unimplemented!` in non-test library code.
pub const NO_PANIC: Lint = Lint {
    id: "no-panic",
    description: "library code must not contain unwrap/expect/panic!/unreachable!/todo!/unimplemented! outside tests",
};

/// `relaxed-ordering`: every `Ordering::Relaxed` must sit in the
/// audited inline allowlist.
pub const RELAXED_ORDERING: Lint = Lint {
    id: "relaxed-ordering",
    description:
        "Ordering::Relaxed on atomics requires an audited inline allow with a justification",
};

/// `fault-seam-bypass`: storage devices must be built through the
/// fault-injection seam, not with bare constructors.
pub const FAULT_SEAM_BYPASS: Lint = Lint {
    id: "fault-seam-bypass",
    description: "DiskManager::new / ArchiveStore::new bypass the fault-injection seam; use the with_faults constructors (or the StorageHierarchy builder)",
};

/// `lossy-cast`: no narrowing `as` casts in `sdbms-stats` kernels.
pub const LOSSY_CAST: Lint = Lint {
    id: "lossy-cast",
    description: "potentially lossy `as` cast in a statistical kernel; use From/TryFrom or an allowed truncation with justification",
};

/// `missing-docs`: every plain-`pub` item of the core crates carries a
/// doc comment.
pub const MISSING_DOCS: Lint = Lint {
    id: "missing-docs",
    description: "public item without a doc comment",
};

/// `unjustified-allow`: an inline `lint: allow(...)` without a reason.
pub const UNJUSTIFIED_ALLOW: Lint = Lint {
    id: "unjustified-allow",
    description: "inline lint allow directive carries no justification",
};

/// `txn-lock-order`: library code outside `sdbms-txn` must acquire
/// view locks through `LockTable::acquire` (which enforces ascending
/// acquisition order), never the unchecked `acquire_raw` primitive.
pub const TXN_LOCK_ORDER: Lint = Lint {
    id: "txn-lock-order",
    description: "acquire_raw skips the ordered-acquisition check; call LockTable::acquire so the deadlock-avoidance discipline holds",
};

/// `snapshot-bypass`: core code must not mutate a view's table store
/// in place — every mutation goes through `store_mut()` (copy-on-write
/// when readers are pinned) or `install_store` (the version swap), so
/// pinned snapshots stay immutable.
pub const SNAPSHOT_BYPASS: Lint = Lint {
    id: "snapshot-bypass",
    description: "direct mutation of a view's store bypasses snapshot isolation; route through store_mut()/install_store",
};

/// `deadline-bypass`: a serving-layer function meters I/O (enters an
/// `IoScope`) without first installing a request budget
/// (`BudgetScope::enter`), so work on that path cannot observe its
/// deadline or a client cancellation (DESIGN.md \u{a7}16).
pub const DEADLINE_BYPASS: Lint = Lint {
    id: "deadline-bypass",
    description:
        "serving-layer fn enters an IoScope without a BudgetScope: work there cannot be cancelled",
};

/// `evaluator-twin`: a second `StatFunction` evaluator or Summary-DB
/// miss path under one of the names PR 16 deleted.
pub const EVALUATOR_TWIN: Lint = Lint {
    id: "evaluator-twin",
    description:
        "a profile twin of StatFunction::answer/aux_state, or the cache-only get_or_compute, reappeared",
};

/// `edit-pipeline-bypass`: in `sdbms-core`, a store write or a WAL
/// intent outside `edit.rs` — past the one applier or the one writer
/// prologue (DESIGN.md \u{a7}12).
pub const EDIT_PIPELINE_BYPASS: Lint = Lint {
    id: "edit-pipeline-bypass",
    description:
        "sdbms-core writes cells only in edit::apply and begins WAL intents only in StatDbms::write",
};

/// The full catalogue, for `--list` and id validation.
pub const ALL_LINTS: &[Lint] = &[
    NO_PANIC,
    RELAXED_ORDERING,
    FAULT_SEAM_BYPASS,
    LOSSY_CAST,
    MISSING_DOCS,
    UNJUSTIFIED_ALLOW,
    TXN_LOCK_ORDER,
    SNAPSHOT_BYPASS,
    DEADLINE_BYPASS,
    EVALUATOR_TWIN,
    EDIT_PIPELINE_BYPASS,
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of this particular finding.
    pub message: String,
}

impl Diagnostic {
    /// Build a finding.
    #[must_use]
    pub fn new(lint: Lint, file: &str, line: u32, message: String) -> Self {
        Diagnostic {
            lint,
            file: file.to_string(),
            line,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: deny[{}]: {}",
            self.file, self.line, self.lint.id, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_unique() {
        let mut ids: Vec<&str> = ALL_LINTS.iter().map(|l| l.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_LINTS.len());
    }

    #[test]
    fn display_has_file_line_and_id() {
        let d = Diagnostic::new(NO_PANIC, "src/x.rs", 7, "found unwrap".into());
        assert_eq!(d.to_string(), "src/x.rs:7: deny[no-panic]: found unwrap");
    }
}
