//! `netclust-analyze`: the workspace's static-analysis gate.
//!
//! A vendored, dependency-free, two-phase Rust source analyzer. Phase 1
//! lexes every file ([`lex`]) and builds a workspace symbol index and
//! call graph ([`graph`], [`resolve`]): item boundaries, `use`-aware
//! name resolution good enough for in-workspace paths, call edges.
//! Phase 2 runs the contract rules ([`rules`]) — per-file token checks
//! (SAFETY-commented `unsafe`, panic-free hot modules, audited
//! narrowing casts, determinism, typed public errors, justified atomic
//! orderings) plus cross-file graph checks (transitive hot-path
//! panic-freedom, WAL append-before-apply and fsync-before-rename,
//! failpoint registry coverage). See `DESIGN.md` §12 for the contract
//! rationale.
//!
//! The analyzer is a *lint with receipts*, not a prover: heuristic
//! rules over a real token stream and a may-analysis call graph, with
//! per-line and per-file allow markers recording the human
//! justification wherever a site is sound for reasons the heuristics
//! cannot see. CI runs `netclust-analyze --deny-all --json ANALYZE.json
//! --sarif ANALYZE.sarif` as a hard gate; both reports are
//! deterministic and byte-stable for a given tree.

#![warn(missing_docs)]

pub mod graph;
pub mod lex;
pub mod manifest;
pub mod report;
pub mod resolve;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

pub use manifest::{Manifest, ManifestError};
pub use report::{Finding, Report};

/// Everything that can go wrong while scanning (other than findings).
#[derive(Debug)]
pub enum AnalyzeError {
    /// Reading a file or directory failed.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The manifest was malformed.
    Manifest(ManifestError),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Io { path, source } => write!(f, "{path}: {source}"),
            AnalyzeError::Manifest(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalyzeError::Io { source, .. } => Some(source),
            AnalyzeError::Manifest(e) => Some(e),
        }
    }
}

/// Directories never descended into, regardless of manifest excludes.
const ALWAYS_SKIP_DIRS: [&str; 3] = ["target", ".git", ".claude"];

/// Directory components whose files are test-only targets (integration
/// tests, benches): exempt from the contracts, like `#[cfg(test)]`
/// modules. Applies to components *relative to the scan root*, so a
/// fixture tree scanned directly as the root is still checked.
const TEST_DIR_COMPONENTS: [&str; 2] = ["tests", "benches"];

/// `true` when `rel` lies under a test-only directory.
fn is_test_target(rel: &str) -> bool {
    rel.split('/').any(|c| TEST_DIR_COMPONENTS.contains(&c))
}

/// Collects every `.rs` file under `path` (or `path` itself when it is a
/// file), sorted, as paths relative to `root` with forward slashes.
/// Test-target files are collected too — they feed the symbol graph and
/// get marker hygiene — and are told apart later via [`is_test_target`].
fn collect_rs_files(
    root: &Path,
    path: &Path,
    manifest: &Manifest,
    out: &mut Vec<String>,
) -> Result<(), AnalyzeError> {
    let io_err = |p: &Path, source: std::io::Error| AnalyzeError::Io {
        path: p.display().to_string(),
        source,
    };
    let meta = std::fs::metadata(path).map_err(|e| io_err(path, e))?;
    if meta.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            if let Some(rel) = relative_slash(root, path) {
                if !manifest.is_excluded(&rel) {
                    out.push(rel);
                }
            }
        }
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| io_err(path, e))?
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io_err(path, e))?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for entry in entries {
        let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if entry.is_dir() {
            if ALWAYS_SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            if let Some(rel) = relative_slash(root, &entry) {
                if manifest.is_excluded(&rel) {
                    continue;
                }
            }
            collect_rs_files(root, &entry, manifest, out)?;
        } else if name.ends_with(".rs") {
            if let Some(rel) = relative_slash(root, &entry) {
                if !manifest.is_excluded(&rel) {
                    out.push(rel);
                }
            }
        }
    }
    Ok(())
}

/// `path` relative to `root`, with forward slashes; `None` when `path`
/// is not under `root`.
fn relative_slash(root: &Path, path: &Path) -> Option<String> {
    let rel = path.strip_prefix(root).ok()?;
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(comp.as_os_str().to_str()?);
    }
    Some(s)
}

/// Scans `paths` (files or directories, relative to `root`) under the
/// given manifest, returning the normalized report.
///
/// Two phases: every collected file (contract *and* test-target) is
/// read and lexed once, and the token streams feed the workspace
/// [`graph::SymbolGraph`]; then the per-file rules run over contract
/// files (test targets get marker hygiene only), the cross-file rules
/// run over the graph, and manifest entries are checked against disk
/// (`manifest-stale-path`).
pub fn scan(root: &Path, paths: &[PathBuf], manifest: &Manifest) -> Result<Report, AnalyzeError> {
    let mut files = Vec::new();
    if paths.is_empty() {
        collect_rs_files(root, root, manifest, &mut files)?;
    } else {
        for p in paths {
            let abs = if p.is_absolute() {
                p.clone()
            } else {
                root.join(p)
            };
            collect_rs_files(root, &abs, manifest, &mut files)?;
        }
    }
    files.sort();
    files.dedup();

    // Phase 1: read + lex everything, build the symbol graph.
    let metas: Vec<(String, bool)> = files
        .iter()
        .map(|rel| (rel.clone(), is_test_target(rel)))
        .collect();
    let mut srcs: Vec<String> = Vec::with_capacity(files.len());
    for rel in &files {
        let abs = root.join(rel);
        let src = std::fs::read_to_string(&abs).map_err(|e| AnalyzeError::Io {
            path: abs.display().to_string(),
            source: e,
        })?;
        srcs.push(src);
    }
    let toks: Vec<Vec<lex::Tok<'_>>> = srcs.iter().map(|s| lex::lex(s)).collect();
    let masks: Vec<Vec<bool>> = metas
        .iter()
        .zip(&toks)
        .map(|((_, is_test), t)| {
            if *is_test {
                vec![true; t.len()]
            } else {
                rules::test_mask_of(t)
            }
        })
        .collect();
    let graph = graph::SymbolGraph::build(&metas, &toks, &masks);

    // Phase 2a: per-file rules (contract files) / marker hygiene (test
    // targets).
    let mut report = Report::default();
    for (i, (rel, is_test)) in metas.iter().enumerate() {
        let mut file_findings = if *is_test {
            rules::scan_markers(&toks[i])
        } else {
            rules::scan_tokens(rel, &toks[i], manifest)
        };
        for f in &mut file_findings {
            f.path = rel.clone();
        }
        report.findings.append(&mut file_findings);
        if *is_test {
            report.test_files_indexed += 1;
        } else {
            report.files_scanned += 1;
        }
    }

    // Phase 2b: cross-file rules over the graph, suppressed by the
    // target file's own allow markers.
    for (fid, finding) in rules::scan_graph(&graph, &toks, &masks, manifest) {
        let mut kept = rules::suppress(&toks[fid], vec![finding]);
        for f in &mut kept {
            f.path = metas[fid].0.clone();
        }
        report.findings.append(&mut kept);
    }

    // Manifest entries that match nothing on disk are reported, not
    // silently inert.
    for (entry, line) in &manifest.entries {
        if !root.join(entry).exists() {
            report.findings.push(Finding {
                rule: "manifest-stale-path",
                path: manifest.source.clone(),
                line: u32::try_from(*line).unwrap_or(u32::MAX),
                message: format!(
                    "manifest entry `{entry}` matches nothing on disk: remove it or fix \
                     the path (a stale exclude can silently unscan a real module)"
                ),
            });
        }
    }

    report.normalize();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/a/b");
        let rel = relative_slash(root, Path::new("/a/b/c/d.rs")).expect("under root");
        assert_eq!(rel, "c/d.rs");
        assert!(relative_slash(root, Path::new("/elsewhere/d.rs")).is_none());
    }
}
