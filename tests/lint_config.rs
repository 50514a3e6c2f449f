//! Tier-1 guard on the static enforcers: rustc denies `unsafe` code,
//! clippy owns the panic-path, undocumented-unsafe and determinism bans,
//! and the clippy CI job is their gate; the test profile keeps the runtime
//! checks on; the allocation contract stays one test. Deleting one of
//! these lines must also turn tier-1 red.

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The body of the `key = [ … ]` array in `clippy.toml`.
fn toml_array(text: &str, key: &str) -> String {
    let start = text.find(&format!("\n{key} = [")).unwrap_or_else(|| panic!("no `{key}`"));
    let body = &text[start..];
    body[..body.find("\n]").unwrap_or(body.len())].to_string()
}

#[test]
fn clippy_toml_bans_every_contract_it_owns() {
    let text = read("clippy.toml");
    let types = toml_array(&text, "disallowed-types");
    let methods = toml_array(&text, "disallowed-methods");
    for (list, path) in [
        (&types, "std::collections::HashMap"),
        (&types, "std::collections::HashSet"),
        (&methods, "std::time::Instant::now"),
        (&methods, "std::time::SystemTime::now"),
        (&methods, "std::thread::spawn"),
        (&methods, "std::env::var"),
        (&methods, "std::env::var_os"),
        (&methods, "std::thread::available_parallelism"),
        (&methods, "std::borrow::ToOwned::to_owned"),
        (&methods, "std::collections::VecDeque::new"),
    ] {
        assert!(list.contains(&format!("path = \"{path}\"")), "clippy.toml must ban `{path}`");
    }
}

/// The lines of the `[header]` table in the root `Cargo.toml`.
fn manifest_table(manifest: &str, header: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(|l| l.trim().to_string())
        .collect()
}

#[test]
fn workspace_denies_undocumented_unsafe_blocks() {
    let table = manifest_table(&read("Cargo.toml"), "[workspace.lints.clippy]");
    assert!(
        table.iter().any(|l| l == "undocumented_unsafe_blocks = \"deny\""),
        "[workspace.lints.clippy] in Cargo.toml must deny undocumented_unsafe_blocks"
    );
}

#[test]
fn workspace_denies_unsafe_code() {
    let table = manifest_table(&read("Cargo.toml"), "[workspace.lints.rust]");
    assert!(
        table.iter().any(|l| l == "unsafe_code = \"deny\""),
        "[workspace.lints.rust] in Cargo.toml must deny unsafe_code"
    );
}

/// The optimised test profile keeps the runtime checks tier-1 relies on:
/// the `debug_assert!` contracts and integer-overflow traps.
#[test]
fn test_profile_keeps_debug_assertions_and_overflow_checks() {
    let table = manifest_table(&read("Cargo.toml"), "[profile.test]");
    for line in ["debug-assertions = true", "overflow-checks = true"] {
        assert!(table.iter().any(|l| l == line), "[profile.test] in Cargo.toml must set `{line}`");
    }
}

#[test]
fn every_library_crate_root_denies_panic_paths() {
    const DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut roots: Vec<_> = std::fs::read_dir(&crates)
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.file_name().is_some_and(|n| n.to_string_lossy().starts_with("sph-")))
        .map(|dir| dir.join("src/lib.rs"))
        .collect();
    roots.sort();
    assert_eq!(roots.len(), 14, "expected 14 sph-* library crates, found {roots:?}");
    for root in roots {
        let text = std::fs::read_to_string(&root).expect("crate root is readable");
        assert!(
            text.lines().any(|l| l.trim() == DENY),
            "{} must carry `{DENY}` at its crate root",
            root.display()
        );
    }
}

/// `tests/hot_alloc.rs` measures with process-wide counters, which cannot
/// tell two concurrently running tests apart: a second `#[test]` there
/// would silently corrupt both its bounds.
#[test]
fn the_allocation_contract_is_one_test() {
    let text = read("tests/hot_alloc.rs");
    let tests = text.lines().filter(|l| l.trim_start().starts_with("#[test]")).count();
    assert_eq!(tests, 1, "tests/hot_alloc.rs must hold exactly one #[test], found {tests}");
}
