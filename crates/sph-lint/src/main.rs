//! `sph_lint` — CLI for the workspace static-analysis pass.
//!
//! ```text
//! cargo run -p sph-lint -- --workspace           # lint the whole workspace
//! cargo run -p sph-lint -- --root /path/to/repo  # explicit root
//! cargo run -p sph-lint -- --list-rules          # rule catalogue
//! ```
//!
//! Exit codes: 0 = clean, 1 = unsuppressed diagnostics, 2 = usage or I/O
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use sph_lint::{lint_workspace, Rule};

const USAGE: &str = "usage: sph_lint [--workspace] [--root <dir>] [--list-rules]

Lints every crates/*/src file (plus the root facade, examples/ and
benches/; shims for the unsafe rule) against the determinism & hot-path
contracts. Suppress a finding inline with:

    // sph-lint: allow(rule-slug) — <justification>

Exit codes: 0 clean, 1 diagnostics found, 2 usage or I/O error.";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // --workspace is the default (and only) scan mode; accepted for
            // self-describing invocations.
            "--workspace" => {}
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root needs a directory argument"),
            },
            "--list-rules" => {
                for rule in Rule::ALL {
                    println!("{}  {:<22} {}", rule.id(), rule.slug(), rule.describe());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = root.unwrap_or_else(default_root);
    let diagnostics = match lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sph-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &diagnostics {
        println!("{d}");
    }
    if diagnostics.is_empty() {
        println!("sph-lint: workspace clean ({})", root.display());
        ExitCode::SUCCESS
    } else {
        println!("sph-lint: {} diagnostic(s)", diagnostics.len());
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Under `cargo run` the manifest dir is `crates/sph-lint`, two levels below
/// the workspace root; otherwise fall back to the current directory.
fn default_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let manifest = PathBuf::from(dir);
            manifest.ancestors().nth(2).map(PathBuf::from).unwrap_or(manifest)
        }
        None => PathBuf::from("."),
    }
}
