//! # sdbms-lint — workspace-wide static analysis
//!
//! Two layers, one binary:
//!
//! - **Layer 1** ([`source_lints`]) runs token-pattern lints over every
//!   workspace source file using a hand-written tokenizer
//!   ([`tokenizer`]) — no external parser, the same
//!   zero-new-dependency discipline as the vendored stand-ins.
//! - **Layer 2** ([`soundness`]) introspects the *running system's*
//!   metadata: the summary-function registry and the Management
//!   Database's maintenance rules, checking that every declared
//!   maintenance strategy is actually sound (the merge-law oracle is
//!   executed, not assumed).
//!
//! Lock order is not checked here: every mutex carries a rank from the
//! vendored `parking_lot` shim, and debug builds check each acquisition
//! where it happens (DESIGN.md §14).
//!
//! The binary (`cargo run -p sdbms-lint -- --deny-all`) prints
//! structured diagnostics (`file:line: deny[lint-id]: message`, or a
//! stable JSON schema under `--format json`) and exits nonzero when
//! any non-allowed lint fires — CI runs it beside clippy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diagnostics;
pub mod soundness;
pub mod source_lints;
pub mod tokenizer;
pub mod workspace;

pub use diagnostics::{Diagnostic, Lint, ALL_LINTS};

use std::collections::BTreeSet;
use std::path::Path;

/// Run both layers over a workspace root and return every finding not
/// suppressed by an inline allow, sorted by file then line then id.
pub fn run(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for file in workspace::discover(root)? {
        let src = std::fs::read_to_string(&file.path)?;
        out.extend(source_lints::lint_file(
            &file.rel,
            &tokenizer::tokenize(&src),
            &file.lints,
        ));
    }
    out.extend(soundness::check_standing());
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint.id).cmp(&(b.file.as_str(), b.line, b.lint.id))
    });
    Ok(out)
}

/// Filter findings by a set of allowed lint ids (from `--allow`).
#[must_use]
pub fn filter_allowed(findings: Vec<Diagnostic>, allowed: &BTreeSet<String>) -> Vec<Diagnostic> {
    findings
        .into_iter()
        .filter(|d| !allowed.contains(d.lint.id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_drops_allowed_ids() {
        let findings = vec![
            Diagnostic::new(diagnostics::NO_PANIC, "a.rs", 1, "x".into()),
            Diagnostic::new(diagnostics::LOSSY_CAST, "a.rs", 2, "y".into()),
        ];
        let allowed: BTreeSet<String> = ["no-panic".to_string()].into();
        let kept = filter_allowed(findings, &allowed);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].lint.id, "lossy-cast");
    }
}
