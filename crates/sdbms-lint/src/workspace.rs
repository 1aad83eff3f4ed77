//! Workspace discovery: find every linted source file and decide
//! which lint set applies to it.
//!
//! Only `std::fs` — the crate has the same zero-external-dependency
//! discipline as the vendored stand-ins it lives beside.

use crate::source_lints::{lints_for, FileClass, FileLintSet};
use std::fs;
use std::path::{Path, PathBuf};

/// One source file scheduled for linting.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Repo-relative path used in diagnostics.
    pub rel: String,
    /// The lints enabled for this file.
    pub lints: FileLintSet,
}

/// Discover all lintable `.rs` files under the workspace root:
/// `crates/*/src/**` plus the root package's `src/**`. Crate-root
/// `tests/`, `benches/`, and `examples/` directories sit outside
/// `src/` and are never visited; `src/bin/**` and `src/main.rs` are
/// classified [`FileClass::Bin`].
pub fn discover(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            crate_dirs.push(entry.path());
        }
    }
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        collect(root, &dir.join("src"), &name, &mut out)?;
    }
    collect(root, &root.join("src"), "sdbms", &mut out)?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn collect(
    root: &Path,
    src: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> std::io::Result<()> {
    if !src.is_dir() {
        return Ok(());
    }
    let mut stack = vec![src.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                stack.push(path);
                continue;
            }
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let class = if rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") {
                FileClass::Bin
            } else {
                FileClass::Lib
            };
            let lints = lints_for(class, crate_name);
            out.push(SourceFile { path, rel, lints });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        // crates/sdbms-lint -> crates -> repo root
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."))
    }

    #[test]
    fn discovers_known_crates_and_classifies() {
        let files = discover(&repo_root()).unwrap();
        assert!(files.len() > 40, "found only {} files", files.len());
        for want in [
            "crates/sdbms-stats/",
            "crates/sdbms-storage/",
            "crates/sdbms-summary/",
            "src/",
        ] {
            assert!(
                files.iter().any(|f| f.rel.starts_with(want)),
                "missing {want}"
            );
        }
        let me = files
            .iter()
            .find(|f| f.rel == "crates/sdbms-lint/src/main.rs")
            .expect("own main.rs discovered");
        // A binary: panics and containment are library contracts.
        assert!(!me.lints.no_panic && !me.lints.containment);
        assert!(files
            .iter()
            .all(|f| !f.rel.contains("/tests/") && !f.rel.contains("/examples/")));
    }
}
