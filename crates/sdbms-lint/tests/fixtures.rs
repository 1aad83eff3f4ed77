//! The lint corpus: every lint id must fire on its known-bad fixture
//! at the expected `file:line`, and the live workspace must pass
//! `--deny-all`.

use sdbms_lint::source_lints::{lint_file, FileLintSet};
use sdbms_lint::tokenizer::tokenize;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn all_lints() -> FileLintSet {
    FileLintSet {
        no_panic: true,
        relaxed_ordering: true,
        containment: true,
        lossy_cast: true,
        missing_docs: true,
        deadline_bypass: true,
    }
}

/// `(lint id, line)` pairs for one fixture, sorted by line.
fn findings(name: &str) -> Vec<(String, u32)> {
    findings_as(name, name)
}

/// The same, with the fixture linted as if it were the file `path`.
fn findings_as(path: &str, name: &str) -> Vec<(String, u32)> {
    let src = fixture(name);
    let mut out: Vec<(String, u32)> = lint_file(path, &tokenize(&src), &all_lints())
        .into_iter()
        .map(|d| (d.lint.id.to_string(), d.line))
        .collect();
    out.sort_by_key(|(_, l)| *l);
    out
}

#[test]
fn no_panic_fixture_fires_at_expected_lines() {
    assert_eq!(
        findings("no_panic.rs"),
        vec![
            ("no-panic".to_string(), 10),
            ("no-panic".to_string(), 15),
            ("no-panic".to_string(), 20),
            ("no-panic".to_string(), 25),
        ]
    );
}

#[test]
fn relaxed_and_seam_fixture_fires_at_expected_lines() {
    assert_eq!(
        findings("relaxed_and_seam.rs"),
        vec![
            ("relaxed-ordering".to_string(), 12),
            ("fault-seam-bypass".to_string(), 17),
            ("fault-seam-bypass".to_string(), 22),
            ("unjustified-allow".to_string(), 29),
            ("relaxed-ordering".to_string(), 30),
        ]
    );
}

#[test]
fn lossy_and_docs_fixture_fires_at_expected_lines() {
    assert_eq!(
        findings("lossy_and_docs.rs"),
        vec![
            ("lossy-cast".to_string(), 10),
            ("lossy-cast".to_string(), 15),
            ("missing-docs".to_string(), 18),
            ("missing-docs".to_string(), 21),
        ]
    );
}

#[test]
fn txn_and_snapshot_fixture_fires_at_expected_lines() {
    // Linted as the edit module: cell writes belong there, but only to
    // a successor version, never to the installed store itself.
    assert_eq!(
        findings_as(EDIT_FILE, "txn_and_snapshot.rs"),
        vec![
            ("txn-lock-order".to_string(), 15),
            ("snapshot-bypass".to_string(), 20),
            ("snapshot-bypass".to_string(), 21),
            ("snapshot-bypass".to_string(), 26),
            ("snapshot-bypass".to_string(), 31),
            ("snapshot-bypass".to_string(), 32),
        ]
    );
}

#[test]
fn deadline_bypass_fixture_fires_at_expected_lines() {
    assert_eq!(
        findings("deadline_bypass.rs"),
        vec![
            ("deadline-bypass".to_string(), 9),
            ("deadline-bypass".to_string(), 24),
        ]
    );
}

/// Where `containment.rs` pretends to live.
const CORE_FILE: &str = "crates/sdbms-core/src/dbms.rs";
/// Where `txn_and_snapshot.rs` pretends to live.
const EDIT_FILE: &str = "crates/sdbms-core/src/edit.rs";

#[test]
fn containment_fixture_fires_where_the_rows_apply() {
    assert_eq!(
        findings_as(CORE_FILE, "containment.rs"),
        vec![
            ("edit-pipeline-bypass".to_string(), 13),
            ("edit-pipeline-bypass".to_string(), 14),
            ("edit-pipeline-bypass".to_string(), 15),
            ("evaluator-twin".to_string(), 21),
            ("evaluator-twin".to_string(), 22),
        ]
    );
    // In the edit module the writes belong; the twins belong nowhere.
    assert_eq!(
        findings_as(EDIT_FILE, "containment.rs"),
        vec![
            ("evaluator-twin".to_string(), 21),
            ("evaluator-twin".to_string(), 22),
        ]
    );
}

#[test]
fn fixture_headers_agree_with_findings() {
    // Each fixture documents its expected findings in its header;
    // keep the documentation honest by re-deriving it.
    for name in [
        "no_panic.rs",
        "relaxed_and_seam.rs",
        "lossy_and_docs.rs",
        "txn_and_snapshot.rs",
        "deadline_bypass.rs",
        "containment.rs",
    ] {
        let src = fixture(name);
        let path = match name {
            "containment.rs" => CORE_FILE,
            "txn_and_snapshot.rs" => EDIT_FILE,
            _ => name,
        };
        for (id, line) in findings_as(path, name) {
            let expected = format!("line {line}");
            assert!(
                src.lines()
                    .any(|l| l.contains(&expected) && l.contains(&id)),
                "{name}: header does not document {id} at line {line}"
            );
        }
    }
}

#[test]
fn workspace_passes_deny_all() {
    // The self-check: running the real linter over the real workspace
    // must be clean — everything the lints flag is either fixed or
    // carries a justified inline allow.
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root above crates/sdbms-lint")
        .to_path_buf();
    let found = sdbms_lint::run(&root).expect("workspace lint run");
    assert!(
        found.is_empty(),
        "workspace must pass --deny-all; found:\n{}",
        found
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
