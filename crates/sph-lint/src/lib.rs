//! `sph-lint` — workspace static analysis for the determinism & hot-path
//! contracts.
//!
//! The repo's core claim is that every trajectory is bit-identical across
//! `SPH_THREADS` × nranks × neighbor backends. That contract used to live
//! in reviewers' heads and a determinism test suite that can tell *that* a
//! PR broke it but not *why*. This crate enforces it at the source level
//! as one pipeline: a hand-rolled lexer ([`lexer`]) and item parser
//! ([`items`]) feed a workspace symbol table and conservative call graph
//! ([`graph`]), then one walk per file ([`semantic`]) runs every rule's
//! matcher. Rules scoped by reachability — is this allocation in a
//! function reachable from the kernel passes? — ask the graph instead of
//! trusting crate-name whitelists. Every finding then passes through the
//! inline-suppression resolver in [`rules`].
//!
//! The sweep covers every `crates/*/src` file, the root facade `src/`,
//! `examples/`, and `crates/*/benches` (binary contexts get the reduced
//! rule set; shims answer only for the `unsafe` rule). Contracts that
//! clippy can state exactly — no `HashMap`/`HashSet`, no clock reads
//! or thread spawns — live in `clippy.toml`, not here.
//!
//! See [`rules`] for the rule catalogue and the inline-suppression syntax,
//! and the README "Static analysis" section for the workflow. The
//! `sph_lint` binary (`cargo run -p sph-lint -- --workspace`) and the
//! tier-1 test `tests/workspace_clean.rs` are thin wrappers over
//! [`lint_workspace`].

pub mod graph;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod semantic;

pub use graph::{CallGraph, ParsedFile};
pub use rules::{Diagnostic, FileContext, Rule};
pub use semantic::{HOT_PATH_SEEDS, TRAJECTORY_STEP_TYPES};

use std::fmt;
use std::path::{Path, PathBuf};

/// A diagnostic tied to the file it was found in, ready to print.
#[derive(Debug, Clone)]
pub struct FileDiagnostic {
    /// Path relative to the workspace root (stable across machines).
    pub path: String,
    pub diagnostic: Diagnostic,
    /// The trimmed source line, for self-contained reports.
    pub snippet: String,
}

impl fmt::Display for FileDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = &self.diagnostic;
        write!(
            f,
            "{}:{}:{}: [{}/{}] {}\n    | {}",
            self.path,
            d.line,
            d.col,
            d.rule.id(),
            d.rule.slug(),
            d.message,
            self.snippet
        )
    }
}

/// Errors from walking the workspace (I/O, not lint findings).
#[derive(Debug)]
pub enum LintError {
    /// `root` does not look like the workspace (no `crates/` directory).
    NotAWorkspace(PathBuf),
    /// Reading a directory or file failed.
    Io(PathBuf, std::io::Error),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::NotAWorkspace(p) => {
                write!(f, "{} has no crates/ directory; pass the workspace root", p.display())
            }
            LintError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// Lint a single source string under an explicit context: the workspace
/// pipeline over a one-file workspace, so every rule applies (the call
/// graph simply has no other files to reach).
pub fn lint_source(src: &str, ctx: &FileContext) -> Vec<Diagnostic> {
    let file = ParsedFile::parse("<source>".to_string(), src.to_string(), ctx.clone());
    lint_parsed(&[file]).into_iter().map(|d| d.diagnostic).collect()
}

/// Lint a set of `(workspace-relative path, source)` pairs as one
/// workspace. Paths [`context_for`] does not recognise are skipped. This
/// is what [`lint_workspace`] runs after reading files, and what the
/// cross-file fixture tests drive directly.
pub fn lint_sources(sources: Vec<(String, String)>) -> Vec<FileDiagnostic> {
    let parsed: Vec<ParsedFile> = sources
        .into_iter()
        .filter_map(|(path, src)| {
            let ctx = context_for(Path::new(&path))?;
            Some(ParsedFile::parse(path, src, ctx))
        })
        .collect();
    lint_parsed(&parsed)
}

/// The workspace pipeline over parsed files: call graph → one rule walk
/// per file → suppression matching.
fn lint_parsed(files: &[ParsedFile]) -> Vec<FileDiagnostic> {
    let graph = CallGraph::build(files);
    let found = semantic::check(files, &graph);
    let mut out = Vec::new();
    for (pf, found) in files.iter().zip(found) {
        for diagnostic in rules::resolve_suppressions(pf, found) {
            let snippet = pf
                .src
                .lines()
                .nth(diagnostic.line.saturating_sub(1) as usize)
                .unwrap_or("")
                .trim()
                .to_string();
            out.push(FileDiagnostic { path: pf.rel_path.clone(), diagnostic, snippet });
        }
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.diagnostic.line, a.diagnostic.col, a.diagnostic.rule).cmp(&(
            b.path.as_str(),
            b.diagnostic.line,
            b.diagnostic.col,
            b.diagnostic.rule,
        ))
    });
    out
}

/// Classify a workspace-relative path into the [`FileContext`] that decides
/// which rules apply. Returns `None` for files sph-lint does not check
/// (e.g. shim test directories or non-Rust files).
pub fn context_for(rel_path: &Path) -> Option<FileContext> {
    if rel_path.extension().and_then(|e| e.to_str()) != Some("rs") {
        return None;
    }
    let comps: Vec<&str> = rel_path.iter().filter_map(|c| c.to_str()).collect();
    let is_binary = comps.contains(&"bin") || comps.last() == Some(&"main.rs");
    match comps.as_slice() {
        // crates/shims/<name>/src/…
        ["crates", "shims", name, "src", ..] => {
            Some(FileContext { crate_name: format!("shims/{name}"), is_binary, is_shim: true })
        }
        // crates/sph-<name>/src/…
        ["crates", name, "src", ..] => {
            Some(FileContext { crate_name: (*name).to_string(), is_binary, is_shim: false })
        }
        // Crate example/bench targets compile as their own binaries.
        ["crates", name, "examples" | "benches", ..] => {
            Some(FileContext { crate_name: (*name).to_string(), is_binary: true, is_shim: false })
        }
        // The root facade crate's src/.
        ["src", ..] => {
            Some(FileContext { crate_name: "sph-exa-repro".to_string(), is_binary, is_shim: false })
        }
        // Workspace-level examples run against the facade; binaries.
        ["examples", ..] => Some(FileContext {
            crate_name: "sph-exa-repro".to_string(),
            is_binary: true,
            is_shim: false,
        }),
        _ => None,
    }
}

/// Walk the workspace at `root` and lint every checked file. Results are
/// sorted by (path, line, col) so output is deterministic.
pub fn lint_workspace(root: &Path) -> Result<Vec<FileDiagnostic>, LintError> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for dir in crate_src_dirs(root)? {
        collect_rs_files(&dir, &mut files)?;
    }
    files.sort();

    let mut parsed: Vec<ParsedFile> = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let Some(ctx) = context_for(&rel) else { continue };
        let src = std::fs::read_to_string(&file).map_err(|e| LintError::Io(file.clone(), e))?;
        parsed.push(ParsedFile::parse(rel_str(&rel), src, ctx));
    }
    Ok(lint_parsed(&parsed))
}

/// The directories sph-lint walks: every `crates/*/src` (shims are nested
/// one deeper) plus each crate's `examples/` and `benches/`, plus the
/// root facade's `src/` and the workspace-level `examples/`.
fn crate_src_dirs(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut dirs = vec![root.join("src"), root.join("examples")];
    let crates_dir = root.join("crates");
    for entry in read_dir_sorted(&crates_dir)? {
        if entry.file_name().to_string_lossy() == "shims" {
            for shim in read_dir_sorted(&entry.path())? {
                let src = shim.path().join("src");
                if src.is_dir() {
                    dirs.push(src);
                }
            }
        } else {
            for sub in ["src", "examples", "benches"] {
                let dir = entry.path().join(sub);
                if dir.is_dir() {
                    dirs.push(dir);
                }
            }
        }
    }
    dirs.retain(|d| d.is_dir());
    Ok(dirs)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<std::fs::DirEntry>, LintError> {
    let iter = std::fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    let mut entries = Vec::new();
    for entry in iter {
        entries.push(entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?);
    }
    entries.sort_by_key(|e| e.file_name());
    Ok(entries)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for entry in read_dir_sorted(dir)? {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render a relative path with `/` separators regardless of platform.
fn rel_str(rel: &Path) -> String {
    rel.iter().filter_map(|c| c.to_str()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_classification() {
        let lib = context_for(Path::new("crates/sph-core/src/density.rs")).unwrap();
        assert_eq!(lib.crate_name, "sph-core");
        assert!(!lib.is_binary && !lib.is_shim);

        let bin = context_for(Path::new("crates/sph-bench/src/bin/sph-bench/miniapp.rs")).unwrap();
        assert!(bin.is_binary);

        let main = context_for(Path::new("crates/sph-lint/src/main.rs")).unwrap();
        assert!(main.is_binary);

        let shim = context_for(Path::new("crates/shims/rayon/src/lib.rs")).unwrap();
        assert!(shim.is_shim);
        assert_eq!(shim.crate_name, "shims/rayon");

        let facade = context_for(Path::new("src/lib.rs")).unwrap();
        assert_eq!(facade.crate_name, "sph-exa-repro");

        let example = context_for(Path::new("examples/quickstart.rs")).unwrap();
        assert!(example.is_binary && !example.is_shim);
        assert_eq!(example.crate_name, "sph-exa-repro");

        let bench = context_for(Path::new("crates/sph-bench/benches/sph_step.rs")).unwrap();
        assert!(bench.is_binary && !bench.is_shim);
        assert_eq!(bench.crate_name, "sph-bench");

        let crate_example = context_for(Path::new("crates/sph-ft/examples/demo.rs")).unwrap();
        assert!(crate_example.is_binary);

        assert!(context_for(Path::new("README.md")).is_none());
        assert!(context_for(Path::new("tests/determinism.rs")).is_none());
    }
}
