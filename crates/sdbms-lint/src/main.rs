//! The `sdbms-lint` driver.
//!
//! ```text
//! cargo run -p sdbms-lint -- --deny-all            # CI gate
//! cargo run -p sdbms-lint -- --deny-all --allow missing-docs
//! cargo run -p sdbms-lint -- --list                # lint catalogue
//! cargo run -p sdbms-lint -- --format json        # machine output
//! cargo run -p sdbms-lint -- --root /path/to/repo
//! ```
//!
//! Exit codes: 0 clean (or findings while not in `--deny-all`),
//! 1 findings under `--deny-all`, 2 usage or I/O error.
//!
//! `--format json` emits one stable document on stdout:
//! `{"version":2,"findings":[{"rule","file","line","message"}]}`.
//! The summary lines are suppressed; exit codes are unchanged.

use sdbms_lint::{filter_allowed, run, Diagnostic, ALL_LINTS};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: sdbms-lint [--deny-all] [--allow <lint-id>]... [--format <text|json>] [--root <dir>] [--list]"
}

/// Escape a string for a JSON string literal (the workspace carries no
/// JSON dependency; the schema needs only this).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the findings as the versioned JSON document.
fn render_json(findings: &[Diagnostic]) -> String {
    let mut out = String::from("{\"version\":2,\"findings\":[");
    for (i, d) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(d.lint.id),
            json_escape(&d.file),
            d.line,
            json_escape(&d.message),
        ));
    }
    out.push_str("]}");
    out
}

fn main() -> ExitCode {
    let mut deny_all = false;
    let mut list = false;
    let mut json = false;
    let mut allowed: BTreeSet<String> = BTreeSet::new();
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => deny_all = true,
            "--list" => list = true,
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                Some(other) => {
                    eprintln!("error: unknown format `{other}` (text|json)\n{}", usage());
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --format needs text|json\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--allow" => match args.next() {
                Some(id) if ALL_LINTS.iter().any(|l| l.id == id) => {
                    allowed.insert(id);
                }
                Some(id) => {
                    eprintln!("error: unknown lint id `{id}` (see --list)");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --allow needs a lint id\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root needs a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    if list {
        for lint in ALL_LINTS {
            println!("{:<24} {}", lint.id, lint.description);
        }
        return ExitCode::SUCCESS;
    }

    // Default root: the workspace this binary was built in (so
    // `cargo run -p sdbms-lint` works from any subdirectory).
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(std::path::Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."))
    });

    let findings = match run(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = filter_allowed(findings, &allowed);

    if json {
        println!("{}", render_json(&findings));
        return if findings.is_empty() || !deny_all {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    for d in &findings {
        println!("{d}");
    }
    if findings.is_empty() {
        println!(
            "sdbms-lint: clean ({} lints)",
            ALL_LINTS.len() - allowed.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("sdbms-lint: {} finding(s)", findings.len());
        if deny_all {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}
