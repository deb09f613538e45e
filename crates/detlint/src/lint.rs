//! Workspace walking and aggregation: every rule is per-file, so the
//! workspace result is the sorted concatenation of the per-file ones.

use crate::rules::{lint_source, Allow, Boundary, Violation};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Aggregated lint result for a whole workspace tree.
#[derive(Debug, Default)]
pub struct WorkspaceLint {
    /// Workspace-relative paths of every `.rs` file scanned, sorted.
    pub files: Vec<String>,
    pub violations: Vec<Violation>,
    pub allows: Vec<Allow>,
    pub boundaries: Vec<Boundary>,
}

/// Directories never scanned: build output, the vendored dependency
/// stand-ins (external API mirrors, not simulation code), VCS metadata, and
/// detlint's own rule fixtures (which contain violations on purpose).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "results"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint a set of in-memory sources as one workspace. Input order does not
/// matter — files are sorted by path first and each file's findings come
/// back in line order, so the result is a sorted, pure function of the set.
pub fn lint_sources(files: &[(String, String)]) -> WorkspaceLint {
    let mut sorted: Vec<(&str, &str)> = files
        .iter()
        .map(|(p, s)| (p.as_str(), s.as_str()))
        .collect();
    sorted.sort();
    sorted.dedup_by_key(|(p, _)| *p);

    let mut ws = WorkspaceLint::default();
    for (rel, src) in sorted {
        let lint = lint_source(rel, src);
        ws.files.push(rel.to_string());
        ws.violations.extend(lint.violations);
        ws.allows.extend(lint.allows);
        ws.boundaries.extend(lint.boundaries);
    }

    ws
}

/// Lint every `.rs` file under `root` (the workspace checkout).
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceLint> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;

    let mut files = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        files.push((rel, src));
    }
    Ok(lint_sources(&files))
}
