//! Tier-1 gates: the real workspace must lint clean, and `clippy.toml`
//! must keep the bans sph-lint leaves to clippy. Every diagnostic is
//! either fixed or carries a justified inline suppression, so any failure
//! here is a newly introduced contract violation.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives at <root>/crates/sph-lint")
}

#[test]
fn workspace_has_no_unsuppressed_diagnostics() {
    let diags = sph_lint::lint_workspace(workspace_root()).expect("workspace walk succeeds");
    assert!(
        diags.is_empty(),
        "sph-lint found {} unsuppressed diagnostic(s):\n{}",
        diags.len(),
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

/// clippy is the one enforcer of the `HashMap`/`HashSet` and clock /
/// thread-spawn contracts: deleting one of these entries must turn tier-1
/// red, not only the clippy job.
#[test]
fn clippy_toml_bans_the_contracts_sph_lint_leaves_to_clippy() {
    let text = std::fs::read_to_string(workspace_root().join("clippy.toml"))
        .expect("clippy.toml exists at the workspace root");
    let section = |key: &str| -> String {
        let start = text.find(&format!("{key} = [")).unwrap_or_else(|| panic!("no `{key}`"));
        let body = &text[start..];
        body[..body.find("\n]").unwrap_or(body.len())].to_string()
    };
    let types = section("disallowed-types");
    let methods = section("disallowed-methods");
    for (list, path) in [
        (&types, "std::collections::HashMap"),
        (&types, "std::collections::HashSet"),
        (&methods, "std::time::Instant::now"),
        (&methods, "std::time::SystemTime::now"),
        (&methods, "std::thread::spawn"),
    ] {
        assert!(list.contains(&format!("path = \"{path}\"")), "clippy.toml must ban `{path}`");
    }
}
