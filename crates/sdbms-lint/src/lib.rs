//! # sdbms-lint — workspace-wide static analysis
//!
//! A source-only tool: [`source_lints`] runs token-pattern lints over
//! every workspace source file using a hand-written tokenizer
//! ([`tokenizer`]) — no external parser and no dependency on the
//! engine, so it checks only what a static pass over the text can see.
//!
//! What needs the running system is checked where it runs. Lock order:
//! every mutex carries a rank from the vendored `parking_lot` shim, and
//! debug builds check each acquisition (DESIGN.md §14). Maintenance
//! rules: a cached function's rule is its `MaintenanceClass` and
//! `AuxState` in `sdbms-summary`, and `StatDbms::set_derived_rule`
//! refuses a derived-attribute rule that reads a missing column.
//!
//! The binary (`cargo run -p sdbms-lint -- --deny-all`) prints
//! structured diagnostics (`file:line: deny[lint-id]: message`, or a
//! stable JSON schema under `--format json`) and exits nonzero when
//! any non-allowed lint fires — CI runs it beside clippy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diagnostics;
pub mod source_lints;
pub mod tokenizer;
pub mod workspace;

pub use diagnostics::{Diagnostic, Lint, ALL_LINTS};

use std::collections::BTreeSet;
use std::path::Path;

/// Lint every source file under a workspace root and return every
/// finding not suppressed by an inline allow, sorted by file then line
/// then id.
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
