//! Token-pattern source lints (Layer 1).
//!
//! Each lint scans the [`crate::tokenizer::TokenStream`] of one file.
//! Test code is exempt: spans covered by `#[cfg(test)]` / `#[test]`
//! items are computed first and findings inside them are discarded.
//! A finding on line *L* is suppressed by an inline
//! `// lint: allow(<id>): <reason>` directive on line *L* or *L−1*;
//! a directive without a reason is itself reported
//! ([`crate::diagnostics::UNJUSTIFIED_ALLOW`]) so the allowlist stays
//! audited.

use crate::diagnostics::{
    Diagnostic, Lint, DEADLINE_BYPASS, EDIT_PIPELINE_BYPASS, EVALUATOR_TWIN, FAULT_SEAM_BYPASS,
    LOSSY_CAST, MISSING_DOCS, NO_PANIC, RELAXED_ORDERING, SNAPSHOT_BYPASS, TXN_LOCK_ORDER,
    UNJUSTIFIED_ALLOW,
};
use crate::tokenizer::{Tok, TokKind, TokenStream};

/// What kind of compilation target a file belongs to — decides which
/// lints run on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code (`crates/*/src/**`, the workspace root `src/**`).
    /// All source lints apply.
    Lib,
    /// Binary targets (`src/main.rs`, `src/bin/**`). Top-level
    /// processes may abort; panic-freedom is a library contract.
    Bin,
}

/// Which lints to run on one file.
#[derive(Debug, Clone)]
pub struct FileLintSet {
    /// `no-panic` applies.
    pub no_panic: bool,
    /// `relaxed-ordering` applies.
    pub relaxed_ordering: bool,
    /// The [`CONTAINMENT`] table applies (each row says where).
    pub containment: bool,
    /// `lossy-cast` applies (only `sdbms-stats` kernels).
    pub lossy_cast: bool,
    /// `missing-docs` applies (core crates).
    pub missing_docs: bool,
    /// `deadline-bypass` applies (only `sdbms-serve`, where every
    /// request carries a budget).
    pub deadline_bypass: bool,
}

/// Run the configured source lints over one tokenized file. `file` is
/// the repo-relative path used in diagnostics.
#[must_use]
pub fn lint_file(file: &str, ts: &TokenStream, set: &FileLintSet) -> Vec<Diagnostic> {
    let toks = &ts.toks;
    let test_spans = test_spans(toks);
    let in_test = |idx: usize| test_spans.iter().any(|&(s, e)| idx >= s && idx <= e);
    let mut raw: Vec<Diagnostic> = Vec::new();

    for i in 0..toks.len() {
        if in_test(i) {
            continue;
        }
        if set.no_panic {
            no_panic_at(file, toks, i, &mut raw);
        }
        if set.relaxed_ordering {
            relaxed_at(file, toks, i, &mut raw);
        }
        if set.containment {
            containment_at(file, toks, i, &mut raw);
        }
        if set.lossy_cast {
            lossy_cast_at(file, toks, i, &mut raw);
        }
        if set.missing_docs {
            missing_docs_at(file, toks, i, &mut raw);
        }
    }

    // The deadline-bypass lint is a per-function property (does the
    // body that meters I/O also install a budget?), so it runs as a
    // whole-file pass rather than a per-token pattern.
    if set.deadline_bypass {
        deadline_bypass_pass(file, toks, &test_spans, &mut raw);
    }

    // Apply the inline allowlist: a justified allow(id) on the finding
    // line or the line above suppresses it; unjustified directives are
    // findings themselves.
    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| {
            !ts.allows.iter().any(|a| {
                a.justified && a.id == d.lint.id && (a.line == d.line || a.line + 1 == d.line)
            })
        })
        .collect();
    for a in &ts.allows {
        if !a.justified {
            out.push(Diagnostic::new(
                UNJUSTIFIED_ALLOW,
                file,
                a.line,
                format!(
                    "allow({}) has no justification; write `lint: allow({}): <reason>`",
                    a.id, a.id
                ),
            ));
        }
    }
    out.sort_by(|a, b| (a.line, a.lint.id).cmp(&(b.line, b.lint.id)));
    out
}

fn push(out: &mut Vec<Diagnostic>, lint: Lint, file: &str, line: u32, msg: String) {
    out.push(Diagnostic::new(lint, file, line, msg));
}

/// `no-panic`: `.unwrap(` / `.expect(` method calls and the panicking
/// macros.
fn no_panic_at(file: &str, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return;
    }
    let prev_dot = i > 0 && toks[i - 1].is_punct('.');
    if prev_dot && (t.text == "unwrap" || t.text == "expect") {
        push(
            out,
            NO_PANIC,
            file,
            t.line,
            format!(".{}() can panic in library code", t.text),
        );
        return;
    }
    let next_bang = i + 1 < toks.len() && toks[i + 1].is_punct('!');
    if next_bang
        && matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        )
    {
        push(
            out,
            NO_PANIC,
            file,
            t.line,
            format!("{}! can panic in library code", t.text),
        );
    }
}

/// `relaxed-ordering`: the token sequence `Ordering :: Relaxed`.
fn relaxed_at(file: &str, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    if toks[i].is_ident("Relaxed")
        && i >= 3
        && toks[i - 1].is_punct(':')
        && toks[i - 2].is_punct(':')
        && toks[i - 3].is_ident("Ordering")
    {
        push(
            out,
            RELAXED_ORDERING,
            file,
            toks[i].line,
            "Ordering::Relaxed outside the audited allowlist".to_string(),
        );
    }
}

/// One containment rule — `(lint, token pattern, where it applies,
/// allowed paths, message)`: a sequence of identifier and punctuation
/// tokens (space-separated; comments and string literals never match)
/// that, in files under the `where` prefixes (none: every linted
/// file), may appear only under the allowed ones. Paths are
/// repo-relative.
pub type Containment = (
    Lint,
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
    &'static str,
);

const SEAM: &str = "a bare device constructor bypasses the fault-injection seam; \
                    construct through with_faults or the hierarchy builder";
const RAW_LOCK: &str = "acquire_raw bypasses ordered lock acquisition; use LockTable::acquire";
const TWIN: &str = "a second StatFunction evaluator or miss path; \
                    use StatFunction::answer / get_or_compute_resilient";
const APPLIER: &str = "a store write outside the one applier; plan it and hand it to edit::apply";
const PROLOGUE: &str = "a WAL intent begun outside the one writer prologue; enter StatDbms::write";
const SNAPSHOT: &str = "mutates a possibly-pinned store in place; \
                        go through store_mut() (copy-on-write) or install_store (the version swap)";
const TXN: &[&str] = &["crates/sdbms-txn/"];
const CORE: &[&str] = &["crates/sdbms-core/src/"];
const EDIT: &[&str] = &["crates/sdbms-core/src/edit.rs"];

/// Every "this name lives in one place" invariant of the workspace.
pub const CONTAINMENT: &[Containment] = &[
    // Devices are built through the fault-injection seam.
    (FAULT_SEAM_BYPASS, "DiskManager : : new", &[], &[], SEAM),
    (FAULT_SEAM_BYPASS, "ArchiveStore : : new", &[], &[], SEAM),
    // The raw lock primitive skips the ordered-acquisition check, so
    // code composing locks through it could create wait-for cycles if
    // a blocking mode is ever added.
    (TXN_LOCK_ORDER, "acquire_raw", &[], TXN, RAW_LOCK),
    // One evaluator, one miss path: the profile twins of
    // StatFunction::answer / aux_state and the cache-only lookup that
    // skipped quarantine stay gone.
    (EVALUATOR_TWIN, "compute_from_profile", &[], &[], TWIN),
    (EVALUATOR_TWIN, "aux_from_profile", &[], &[], TWIN),
    (EVALUATOR_TWIN, "refresh_entry_from_profile", &[], &[], TWIN),
    (EVALUATOR_TWIN, "fn get_or_compute", &[], &[], TWIN),
    // One edit pipeline: in sdbms-core, cells are written by the one
    // applier and WAL intents begun by the one writer prologue
    // (`begin_repair` is repair's own).
    (EDIT_PIPELINE_BYPASS, ". set_cell (", CORE, EDIT, APPLIER),
    (EDIT_PIPELINE_BYPASS, ". set_cells (", CORE, EDIT, APPLIER),
    (EDIT_PIPELINE_BYPASS, ". append_row (", CORE, EDIT, APPLIER),
    (EDIT_PIPELINE_BYPASS, "wal . begin (", CORE, EDIT, PROLOGUE),
    (EDIT_PIPELINE_BYPASS, "begin_txn (", CORE, EDIT, PROLOGUE),
    // Snapshot isolation: in sdbms-core a view's store changes only
    // through store_mut() or install_store, so pinned snapshots stay
    // immutable. Reads on `.store` are fine, and `==` is one token, so
    // a comparison is not an assignment.
    (SNAPSHOT_BYPASS, ". store . set_cell", CORE, &[], SNAPSHOT),
    (SNAPSHOT_BYPASS, ". store . set_cells", CORE, &[], SNAPSHOT),
    (SNAPSHOT_BYPASS, ". store . append_row", CORE, &[], SNAPSHOT),
    (SNAPSHOT_BYPASS, ". store . add_column", CORE, &[], SNAPSHOT),
    (
        SNAPSHOT_BYPASS,
        ". store . rebuild_zone_maps",
        CORE,
        &[],
        SNAPSHOT,
    ),
    (SNAPSHOT_BYPASS, ". store =", CORE, &[], SNAPSHOT),
];

/// Report every [`CONTAINMENT`] row whose pattern starts at token `i`
/// of a file the row watches and does not allow.
fn containment_at(file: &str, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    let under = |prefixes: &[&str]| prefixes.iter().any(|p| file.starts_with(p));
    let is = |t: &Tok, text| matches!(t.kind, TokKind::Ident | TokKind::Punct) && t.text == text;
    for &(lint, pattern, within, allowed, message) in CONTAINMENT {
        let mut ahead = toks[i..].iter();
        let matched = pattern
            .split(' ')
            .all(|p| ahead.next().is_some_and(|t| is(t, p)));
        if matched && (within.is_empty() || under(within)) && !under(allowed) {
            push(out, lint, file, toks[i].line, message.to_string());
        }
    }
}

/// Cast targets `lossy-cast` flags: every integer target can truncate
/// or wrap, and `f32` drops precision. `as f64` is deliberately not
/// flagged: the only lossy sources are 64-bit integers above 2^53,
/// far beyond any row count these kernels see.
const NARROW_TARGETS: &[&str] = &[
    "usize", "u64", "u32", "u16", "u8", "isize", "i64", "i32", "i16", "i8", "f32",
];

/// `lossy-cast`: `as <narrow numeric type>`.
fn lossy_cast_at(file: &str, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    if toks[i].is_ident("as")
        && i + 1 < toks.len()
        && toks[i + 1].kind == TokKind::Ident
        && NARROW_TARGETS.contains(&toks[i + 1].text.as_str())
    {
        push(
            out,
            LOSSY_CAST,
            file,
            toks[i].line,
            format!(
                "`as {}` may truncate or wrap; use From/TryFrom or justify the truncation",
                toks[i + 1].text
            ),
        );
    }
}

/// Item keywords that start a documentable public item.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union",
];

/// `missing-docs`: a plain `pub` item with no outer doc comment above
/// it (attributes between the docs and the item are fine).
fn missing_docs_at(file: &str, toks: &[Tok], i: usize, out: &mut Vec<Diagnostic>) {
    if !toks[i].is_ident("pub") {
        return;
    }
    // `pub(crate)` / `pub(super)` items are not part of the public API.
    let mut j = i + 1;
    if j < toks.len() && toks[j].is_punct('(') {
        return;
    }
    // Find the item keyword within the next few tokens (`pub const fn`,
    // `pub async fn`, …). `pub use` re-exports carry their own docs at
    // the definition site.
    let mut kind: Option<&str> = None;
    let mut hops = 0;
    while j < toks.len() && hops < 4 {
        let t = &toks[j];
        if t.is_ident("use") {
            return;
        }
        if t.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()) {
            // `pub const fn` is a fn, not a const item.
            if t.text == "const" && j + 1 < toks.len() && toks[j + 1].is_ident("fn") {
                j += 1;
                hops += 1;
                continue;
            }
            kind =
                Some(ITEM_KEYWORDS[ITEM_KEYWORDS.iter().position(|k| *k == t.text).unwrap_or(0)]);
            break;
        }
        j += 1;
        hops += 1;
    }
    let Some(kind) = kind else { return };
    // `pub mod foo;` carries its docs as `//!` inner comments inside
    // foo.rs, where rustc's own missing_docs (warned-on in every lib
    // crate) checks them; only inline `pub mod foo { … }` needs outer
    // docs here.
    if kind == "mod" && j + 2 < toks.len() && toks[j + 2].is_punct(';') {
        return;
    }
    // Walk backwards over attributes to the token that precedes the
    // item; it must be an outer doc comment.
    let mut k = i as isize - 1;
    while k >= 0 {
        let t = &toks[k as usize];
        if t.is_punct(']') {
            // Skip the attribute: back to its matching '[' and the '#'.
            let mut depth = 1;
            k -= 1;
            while k >= 0 && depth > 0 {
                if toks[k as usize].is_punct(']') {
                    depth += 1;
                } else if toks[k as usize].is_punct('[') {
                    depth -= 1;
                }
                k -= 1;
            }
            if k >= 0 && toks[k as usize].is_punct('#') {
                k -= 1;
            }
            continue;
        }
        break;
    }
    let documented = k >= 0 && toks[k as usize].kind == TokKind::DocOuter;
    if !documented {
        push(
            out,
            MISSING_DOCS,
            file,
            toks[i].line,
            format!("public {kind} has no doc comment"),
        );
    }
}

/// `deadline-bypass`: a function whose body enters an [`IoScope`]
/// (metering real engine/storage work) without first installing a
/// `BudgetScope`. In the serving layer every request carries a
/// deadline/cancellation budget (DESIGN.md §16); metered work outside
/// a budget scope can neither observe its deadline nor be cancelled,
/// so it silently escapes the whole lifecycle contract. The check is
/// per `fn` item: any body containing `IoScope::enter` must also
/// contain `BudgetScope::enter` (the RAII pair is installed at the top
/// of each `process_*` entry point).
fn deadline_bypass_pass(
    file: &str,
    toks: &[Tok],
    test_spans: &[(usize, usize)],
    out: &mut Vec<Diagnostic>,
) {
    let in_test = |idx: usize| test_spans.iter().any(|&(s, e)| idx >= s && idx <= e);
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") || in_test(i) {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let end = item_end(toks, i);
        let body = &toks[i..=end];
        if scope_enter(body, "IoScope") && !scope_enter(body, "BudgetScope") {
            push(
                out,
                DEADLINE_BYPASS,
                file,
                name.line,
                format!(
                    "fn {} enters an IoScope without a BudgetScope; \
                     metered work here cannot observe its deadline or be cancelled",
                    name.text
                ),
            );
        }
        i = end + 1;
    }
}

/// Does the token slice contain the path-call `ty::enter`?
fn scope_enter(toks: &[Tok], ty: &str) -> bool {
    toks.windows(4).any(|w| {
        w[0].is_ident(ty) && w[1].is_punct(':') && w[2].is_punct(':') && w[3].is_ident("enter")
    })
}

/// Token-index spans covered by `#[cfg(test)]` / `#[test]` items
/// (test modules, test functions, and anything else gated on `test`).
fn test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            let close = match matching_bracket(toks, i + 1) {
                Some(c) => c,
                None => break,
            };
            if attr_is_test(&toks[i + 2..close]) {
                // Skip trailing attributes/docs, then consume the item.
                let mut k = close + 1;
                loop {
                    if k + 1 < toks.len() && toks[k].is_punct('#') && toks[k + 1].is_punct('[') {
                        match matching_bracket(toks, k + 1) {
                            Some(c) => k = c + 1,
                            None => break,
                        }
                    } else if k < toks.len()
                        && matches!(toks[k].kind, TokKind::DocOuter | TokKind::DocInner)
                    {
                        k += 1;
                    } else {
                        break;
                    }
                }
                let end = item_end(toks, k);
                spans.push((i, end));
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Does an attribute body (tokens between `#[` and `]`) gate on the
/// test cfg? Covers `#[test]`, `#[cfg(test)]`, and compound cfgs like
/// `#[cfg(all(test, …))]`, while leaving `#[cfg(not(test))]` (which
/// marks *non*-test code) alone.
fn attr_is_test(body: &[Tok]) -> bool {
    if body.len() == 1 && body[0].is_ident("test") {
        return true;
    }
    if body.first().is_some_and(|t| t.is_ident("cfg")) {
        let has_test = body.iter().any(|t| t.is_ident("test"));
        let has_not = body.iter().any(|t| t.is_ident("not"));
        return has_test && !has_not;
    }
    false
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0;
    for (idx, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}

/// Index of the last token of the item starting at `start`: either a
/// `;` before any body, or the `}` closing the first `{` block.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct(';') {
            return i;
        }
        if t.is_punct('{') {
            let mut depth = 0;
            while i < toks.len() {
                if toks[i].is_punct('{') {
                    depth += 1;
                } else if toks[i].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                i += 1;
            }
            return toks.len().saturating_sub(1);
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// The full lint set for ordinary library code.
#[must_use]
pub fn lints_for(class: FileClass, crate_name: &str) -> FileLintSet {
    let lib = class == FileClass::Lib;
    FileLintSet {
        no_panic: lib,
        relaxed_ordering: lib,
        containment: lib,
        lossy_cast: lib && crate_name == "sdbms-stats",
        missing_docs: lib,
        // Only the serving layer threads a budget through every
        // request; engine code may meter I/O without one.
        deadline_bypass: lib && crate_name == "sdbms-serve",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn all() -> FileLintSet {
        FileLintSet {
            no_panic: true,
            relaxed_ordering: true,
            containment: true,
            lossy_cast: true,
            missing_docs: true,
            deadline_bypass: true,
        }
    }

    fn ids(src: &str) -> Vec<(String, u32)> {
        ids_at("t.rs", src)
    }

    fn ids_at(file: &str, src: &str) -> Vec<(String, u32)> {
        lint_file(file, &tokenize(src), &all())
            .into_iter()
            .map(|d| (d.lint.id.to_string(), d.line))
            .collect()
    }

    #[test]
    fn unwrap_in_lib_flagged_in_test_not() {
        let src = "/// d\npub fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }\n";
        assert_eq!(ids(src), vec![("no-panic".into(), 2)]);
    }

    #[test]
    fn test_fn_attribute_exempts() {
        let src = "#[test]\nfn t() { a.expect(\"x\"); panic!(); }\n";
        assert!(ids(src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\nfn f() { panic!(); }\n";
        assert_eq!(ids(src), vec![("no-panic".into(), 2)]);
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let src = "// lint: allow(no-panic): worker panic is propagated\nfn f() { h.join().expect(\"worker\"); }\n";
        assert!(ids(src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let src = "// lint: allow(no-panic)\nfn f() { x.unwrap(); }\n";
        let got = ids(src);
        assert!(got.contains(&("no-panic".into(), 2)), "{got:?}");
        assert!(got.contains(&("unjustified-allow".into(), 1)), "{got:?}");
    }

    #[test]
    fn relaxed_ordering_flagged() {
        let src = "fn f() { c.fetch_add(1, Ordering::Relaxed); c.load(Ordering::SeqCst); }\n";
        assert_eq!(ids(src), vec![("relaxed-ordering".into(), 1)]);
    }

    #[test]
    fn seam_bypass_flagged() {
        let src =
            "fn f() { let d = DiskManager::new(t); let a = ArchiveStore::with_faults(t, i, r); }\n";
        assert_eq!(ids(src), vec![("fault-seam-bypass".into(), 1)]);
    }

    #[test]
    fn lossy_casts() {
        let src =
            "fn f(x: f64, n: usize) { let a = x as usize; let b = n as f64; let c = x as f32; }\n";
        let got = ids(src);
        assert_eq!(
            got,
            vec![("lossy-cast".into(), 1), ("lossy-cast".into(), 1)],
            "as usize and as f32 flagged, as f64 not: {got:?}"
        );
    }

    #[test]
    fn missing_docs_on_pub() {
        let src = "pub fn f() {}\n/// ok\npub fn g() {}\npub(crate) fn h() {}\npub use x::y;\n";
        assert_eq!(ids(src), vec![("missing-docs".into(), 1)]);
    }

    #[test]
    fn mod_declaration_exempt_inline_mod_not() {
        let src = "pub mod storage;\npub mod inline_mod { }\n";
        assert_eq!(ids(src), vec![("missing-docs".into(), 2)]);
    }

    #[test]
    fn docs_through_attributes() {
        let src = "/// documented\n#[derive(Debug, Clone)]\npub struct S;\n";
        assert!(ids(src).is_empty());
    }

    #[test]
    fn undocumented_derive_struct() {
        let src = "#[derive(Debug)]\npub struct S;\n";
        assert_eq!(ids(src), vec![("missing-docs".into(), 2)]);
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "fn f() { let s = \"x.unwrap()\"; } // calls unwrap eventually\n";
        assert!(ids(src).is_empty());
    }

    #[test]
    fn bin_class_skips_panics_and_every_library_crate_keeps_them() {
        let set = lints_for(FileClass::Bin, "sdbms-lint");
        assert!(!set.no_panic);
        let set = lints_for(FileClass::Lib, "sdbms-serve");
        assert!(set.no_panic && set.missing_docs);
    }

    #[test]
    fn stats_gets_lossy_cast() {
        assert!(lints_for(FileClass::Lib, "sdbms-stats").lossy_cast);
        assert!(!lints_for(FileClass::Lib, "sdbms-storage").lossy_cast);
    }

    #[test]
    fn acquire_raw_flagged_outside_txn_crate() {
        let src = "fn f() { let g = locks.acquire_raw(s, \"v\"); }\n";
        assert_eq!(ids(src), vec![("txn-lock-order".into(), 1)]);
        assert!(ids_at("crates/sdbms-txn/src/lock.rs", src).is_empty());
        let core = ids_at("crates/sdbms-core/src/dbms.rs", src);
        assert_eq!(core, vec![("txn-lock-order".into(), 1)]);
    }

    #[test]
    fn evaluator_twins_flagged_everywhere_but_not_in_prose() {
        let src = "fn get_or_compute() { aux_from_profile(p); }\n// compute_from_profile is gone\nfn f() { let s = \"refresh_entry_from_profile\"; get_or_compute_resilient(); }\n";
        let twin = |line| ("evaluator-twin".to_string(), line);
        assert_eq!(ids(src), vec![twin(1), twin(1)]);
    }

    #[test]
    fn store_writes_and_intents_in_core_belong_to_the_edit_module() {
        let src = "fn f(s: &mut S, w: &W) {\n    s.set_cell(0, a, v);\n    s.append_row(r);\n    wal.begin(&attrs);\n    w.begin_txn();\n    w.begin_repair();\n    s.set_cells(a, &cells, &mut olds);\n}\n";
        let bypass = |line| ("edit-pipeline-bypass".to_string(), line);
        assert_eq!(
            ids_at("crates/sdbms-core/src/repair.rs", src),
            vec![bypass(2), bypass(3), bypass(4), bypass(5), bypass(7)]
        );
        assert!(ids_at("crates/sdbms-core/src/edit.rs", src).is_empty());
        assert!(ids_at("crates/sdbms-columnar/src/rowstore.rs", src).is_empty());
    }

    #[test]
    fn only_library_code_is_contained() {
        assert!(lints_for(FileClass::Lib, "sdbms-core").containment);
        assert!(!lints_for(FileClass::Bin, "sdbms-lint").containment);
    }

    /// A file under sdbms-core where cell writes are contained.
    const EDIT_FILE: &str = "crates/sdbms-core/src/edit.rs";

    #[test]
    fn store_mutators_flagged_reads_not() {
        let src =
            "fn f(v: &mut V) { v.store.set_cell(0, 1, x); let c = v.store.read_column(2); }\n";
        assert_eq!(ids_at(EDIT_FILE, src), vec![("snapshot-bypass".into(), 1)]);
        let src = "fn g(v: &mut V) { v.store.append_row(r); v.store.rebuild_zone_maps(); }\n";
        assert_eq!(
            ids_at(EDIT_FILE, src),
            vec![("snapshot-bypass".into(), 1), ("snapshot-bypass".into(), 1)]
        );
        let src = "fn h(v: &mut V) { v.store.set_cells(a, &cells, &mut olds); }\n";
        assert_eq!(ids_at(EDIT_FILE, src), vec![("snapshot-bypass".into(), 1)]);
    }

    #[test]
    fn store_assignment_flagged_comparison_not() {
        let src = "fn f(v: &mut V) { v.store = s; }\n";
        assert_eq!(ids_at(EDIT_FILE, src), vec![("snapshot-bypass".into(), 1)]);
        let src = "fn g(v: &V) -> bool { v.store == other }\n";
        assert!(ids_at(EDIT_FILE, src).is_empty());
    }

    #[test]
    fn only_core_is_held_to_snapshot_isolation() {
        let src = "fn f(v: &mut V) { v.store = s; }\n";
        assert!(ids_at("crates/sdbms-repair/src/scrub.rs", src).is_empty());
    }

    #[test]
    fn io_scope_without_budget_scope_flagged() {
        let src = "fn worker(job: &Job) -> Result<()> {\n    let _scope = IoScope::enter(Arc::clone(&stats));\n    compute()\n}\n";
        assert_eq!(ids(src), vec![("deadline-bypass".into(), 1)]);
    }

    #[test]
    fn budget_scope_anywhere_in_the_fn_satisfies_the_lint() {
        let src = "fn worker(job: &Job) -> Result<()> {\n    let _budget = BudgetScope::enter(job.token.clone());\n    let _scope = IoScope::enter(Arc::clone(&stats));\n    compute()\n}\n";
        assert!(ids(src).is_empty());
        // A fn with no metering at all is also fine.
        assert!(ids("fn f() { plain(); }\n").is_empty());
    }

    #[test]
    fn deadline_bypass_exempts_tests_and_honors_allow() {
        let src = "#[test]\nfn t() { let _s = IoScope::enter(x); }\n";
        assert!(ids(src).is_empty());
        let src = "// lint: allow(deadline-bypass): repair runs unbounded by design\nfn repair_all() { let _s = IoScope::enter(x); go(); }\n";
        assert!(ids(src).is_empty());
    }

    #[test]
    fn deadline_bypass_flags_each_offending_fn_independently() {
        let src = "fn good() { let _b = BudgetScope::enter(t); let _s = IoScope::enter(x); }\nfn bad() { let _s = IoScope::enter(x); }\n";
        assert_eq!(ids(src), vec![("deadline-bypass".into(), 2)]);
    }

    #[test]
    fn only_serve_gets_deadline_bypass() {
        assert!(lints_for(FileClass::Lib, "sdbms-serve").deadline_bypass);
        assert!(!lints_for(FileClass::Lib, "sdbms-core").deadline_bypass);
        assert!(!lints_for(FileClass::Bin, "sdbms-serve").deadline_bypass);
    }
}
