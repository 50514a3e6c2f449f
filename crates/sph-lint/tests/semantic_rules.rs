//! Fixture tests of the reachability-scoped rules (R2's trajectory half,
//! R6, R8): each rule must fire through the workspace call graph
//! (including across files) and every documented exemption must hold. Fixtures drive [`sph_lint::lint_sources`]
//! — the same pipeline `--workspace` runs after reading files.

use sph_lint::{lint_sources, Rule};

/// Run the workspace pipeline over `(path, source)` fixtures and return
/// `(path, rule, line)` triples.
fn lint(files: &[(&str, &str)]) -> Vec<(String, Rule, u32)> {
    lint_sources(files.iter().map(|(p, s)| ((*p).to_string(), (*s).to_string())).collect())
        .into_iter()
        .map(|d| (d.path, d.diagnostic.rule, d.diagnostic.line))
        .collect()
}

fn rules_in(diags: &[(String, Rule, u32)], path: &str) -> Vec<Rule> {
    diags.iter().filter(|(p, _, _)| p == path).map(|&(_, r, _)| r).collect()
}

// ---------------------------------------------------------------------------
// R6 hot-alloc
// ---------------------------------------------------------------------------

#[test]
fn r6_fires_on_alloc_reachable_from_seed_across_files() {
    let diags = lint(&[
        (
            "crates/sph-core/src/density.rs",
            "pub fn compute_density(n: usize) -> f64 { helper_scratch(n) }\n",
        ),
        (
            "crates/sph-tree/src/scratch.rs",
            "pub fn helper_scratch(n: usize) -> f64 {\n\
             \x20   let mut v: Vec<f64> = Vec::new();\n\
             \x20   v.resize(n, 0.0);\n\
             \x20   v[0]\n\
             }\n",
        ),
    ]);
    assert_eq!(
        rules_in(&diags, "crates/sph-tree/src/scratch.rs"),
        vec![Rule::HotAlloc],
        "Vec::new two hops from the compute_density seed must fire: {diags:?}"
    );
}

#[test]
fn r6_polices_the_gravity_walk() {
    // `field_at` runs once per particle per step; a heap stack in a
    // helper it calls is what sat unflagged while it was not a seed.
    let diags = lint(&[(
        "crates/sph-tree/src/gravity.rs",
        "pub struct GravitySolver;\n\
         impl GravitySolver {\n\
         \x20   pub fn field_at(&self) -> usize { self.walk_stack().len() }\n\
         \x20   fn walk_stack(&self) -> Vec<u32> {\n\
         \x20       let stack: Vec<u32> = vec![0];\n\
         \x20       stack\n\
         \x20   }\n\
         }\n",
    )]);
    assert_eq!(
        diags,
        vec![("crates/sph-tree/src/gravity.rs".to_string(), Rule::HotAlloc, 5)],
        "a Vec in a fn reachable from field_at must fire"
    );
}

#[test]
fn r6_primitive_qualified_calls_do_not_resolve_name_wide() {
    // `usize::from(…)` is a std impl. Resolving it by name alone would
    // reach the workspace's `From<…> for TreeError` and its `to_string`.
    let diags = lint(&[
        (
            "crates/sph-tree/src/gravity.rs",
            "pub fn field_at(open: bool) -> usize {\n\
             \x20   usize::from(open)\n\
             }\n",
        ),
        (
            "crates/sph-tree/src/error.rs",
            "pub struct TreeError(String);\n\
             impl From<std::fmt::Error> for TreeError {\n\
             \x20   fn from(e: std::fmt::Error) -> TreeError {\n\
             \x20       TreeError(e.to_string())\n\
             \x20   }\n\
             }\n",
        ),
    ]);
    assert!(diags.is_empty(), "a primitive qualifier must resolve to nothing: {diags:?}");
}

#[test]
fn r6_quiet_when_not_reachable_from_any_seed() {
    let diags = lint(&[(
        "crates/sph-exa/src/setup.rs",
        "pub fn build_initial_conditions(n: usize) -> Vec<f64> {\n\
         \x20   let mut v: Vec<f64> = Vec::new();\n\
         \x20   v.resize(n, 0.0);\n\
         \x20   v\n\
         }\n",
    )]);
    assert!(
        rules_in(&diags, "crates/sph-exa/src/setup.rs").is_empty(),
        "setup code is not on the hot path: {diags:?}"
    );
}

#[test]
fn r6_exempts_pre_sized_allocations() {
    let diags = lint(&[(
        "crates/sph-core/src/density.rs",
        "pub fn compute_density(n: usize) -> f64 {\n\
         \x20   let mut a: Vec<f64> = Vec::with_capacity(n);\n\
         \x20   a.push(1.0);\n\
         \x20   let b: Vec<f64> = vec![0.0; n];\n\
         \x20   a[0] + b[0]\n\
         }\n",
    )]);
    assert!(
        rules_in(&diags, "crates/sph-core/src/density.rs").is_empty(),
        "with_capacity and vec![x; n] are deliberate, pre-sized: {diags:?}"
    );
}

#[test]
fn r6_fires_on_single_element_vec_macro() {
    let diags = lint(&[(
        "crates/sph-core/src/density.rs",
        "pub fn compute_density() -> Vec<u32> {\n\
         \x20   let stack: Vec<u32> = vec![0];\n\
         \x20   stack\n\
         }\n",
    )]);
    assert_eq!(
        rules_in(&diags, "crates/sph-core/src/density.rs"),
        vec![Rule::HotAlloc],
        "non-repeat vec![…] is an unsized hot-path allocation: {diags:?}"
    );
}

#[test]
fn r6_exempts_per_chunk_scratch_in_dispatch_closure() {
    let diags = lint(&[(
        "crates/sph-core/src/forces.rs",
        "pub fn compute_forces(xs: &[f64]) {\n\
         \x20   xs.par_chunks(256).for_each(|chunk| {\n\
         \x20       let mut scratch: Vec<f64> = Vec::new();\n\
         \x20       scratch.extend_from_slice(chunk);\n\
         \x20   });\n\
         }\n",
    )]);
    assert!(
        rules_in(&diags, "crates/sph-core/src/forces.rs").is_empty(),
        "per-chunk scratch inside a dispatch closure is the recommended pattern: {diags:?}"
    );
}

#[test]
fn r6_exempts_collect_terminating_parallel_chain() {
    let diags = lint(&[(
        "crates/sph-core/src/gradients.rs",
        "pub fn compute_velocity_gradients(xs: &[f64]) -> Vec<f64> {\n\
         \x20   xs.par_iter().map(|x| x * 2.0).collect()\n\
         }\n",
    )]);
    assert!(
        rules_in(&diags, "crates/sph-core/src/gradients.rs").is_empty(),
        "collect() reassembling a parallel chain is the ordered-reduce idiom: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// R2 raw-accumulation, reachability half
// ---------------------------------------------------------------------------

/// A `Simulation::step` front-end whose helpers live in a non-hot crate:
/// R2's hot-crate scope never sees them, only reachability does.
const STEP_FILE: (&str, &str) = (
    "crates/sph-exa/src/simulation.rs",
    "pub struct Simulation;\n\
     impl Simulation {\n\
     \x20   pub fn step(&mut self, ws: &[f64]) -> f64 { crate::weights::rebalance(ws) }\n\
     }\n",
);

#[test]
fn r7_fires_on_bare_accumulation_reachable_from_step() {
    let diags = lint(&[
        STEP_FILE,
        (
            "crates/sph-exa/src/weights.rs",
            "pub fn rebalance(ws: &[f64]) -> f64 {\n\
             \x20   let mut acc = 0.0;\n\
             \x20   for &w in ws {\n\
             \x20       acc += w;\n\
             \x20   }\n\
             \x20   acc\n\
             }\n",
        ),
    ]);
    assert_eq!(
        rules_in(&diags, "crates/sph-exa/src/weights.rs"),
        vec![Rule::RawAccumulation],
        "bare float += on a trajectory-feeding path must fire: {diags:?}"
    );
}

#[test]
fn r7_fires_on_sum_and_additive_fold() {
    let diags = lint(&[
        STEP_FILE,
        (
            "crates/sph-exa/src/weights.rs",
            "pub fn rebalance(ws: &[f64]) -> f64 {\n\
             \x20   let a: f64 = ws.iter().sum();\n\
             \x20   let b = ws.iter().fold(0.0, |x, &y| x + y);\n\
             \x20   a + b\n\
             }\n",
        ),
    ]);
    assert_eq!(
        rules_in(&diags, "crates/sph-exa/src/weights.rs"),
        vec![Rule::RawAccumulation, Rule::RawAccumulation],
        "both the bare sum() and the additive fold must fire: {diags:?}"
    );
}

#[test]
fn r7_exempts_exact_integer_forms() {
    let diags = lint(&[
        STEP_FILE,
        (
            "crates/sph-exa/src/weights.rs",
            "pub fn rebalance(ws: &[f64]) -> f64 {\n\
             \x20   let mut n = 0usize;\n\
             \x20   for _w in ws {\n\
             \x20       n += 1;\n\
             \x20   }\n\
             \x20   let total: usize = ws.iter().map(|_| 1usize).sum::<usize>();\n\
             \x20   let worst = ws.iter().fold(f64::MIN, |a, &b| a.max(b));\n\
             \x20   (n + total) as f64 + worst\n\
             }\n",
        ),
    ]);
    assert!(
        rules_in(&diags, "crates/sph-exa/src/weights.rs").is_empty(),
        "counter increments, integer-turbofish sums and non-additive folds are exact: {diags:?}"
    );
}

#[test]
fn r7_quiet_when_not_reachable_from_trajectory() {
    let diags = lint(&[(
        "crates/sph-exa/src/report.rs",
        "pub fn summarize(ws: &[f64]) -> f64 {\n\
         \x20   let mut acc = 0.0;\n\
         \x20   for &w in ws {\n\
         \x20       acc += w;\n\
         \x20   }\n\
         \x20   acc\n\
         }\n",
    )]);
    assert!(
        rules_in(&diags, "crates/sph-exa/src/report.rs").is_empty(),
        "post-hoc reporting does not feed trajectories: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// R8 env-determinism
// ---------------------------------------------------------------------------

#[test]
fn r8_fires_on_env_read_in_library_code() {
    let diags = lint(&[(
        "crates/sph-exa/src/config.rs",
        "pub fn threads() -> usize {\n\
         \x20   std::env::var(\"SPH_THREADS\").ok().and_then(|s| s.parse().ok()).unwrap_or(1)\n\
         }\n",
    )]);
    assert_eq!(
        rules_in(&diags, "crates/sph-exa/src/config.rs"),
        vec![Rule::EnvDeterminism],
        "library env reads must fire: {diags:?}"
    );
}

#[test]
fn r8_fires_on_thread_count_probes() {
    let diags = lint(&[(
        "crates/sph-exa/src/config.rs",
        "pub fn width() -> usize {\n\
         \x20   std::thread::available_parallelism().map_or(1, |n| n.get())\n\
         }\n",
    )]);
    assert_eq!(
        rules_in(&diags, "crates/sph-exa/src/config.rs"),
        vec![Rule::EnvDeterminism],
        "hardware thread-count probes are environment reads too: {diags:?}"
    );
}

#[test]
fn r8_quiet_in_binaries_and_shims() {
    let diags = lint(&[
        (
            "crates/sph-bench/src/bin/miniapp.rs",
            "fn main() {\n\
             \x20   let _ = std::env::var(\"SPH_THREADS\");\n\
             }\n",
        ),
        (
            "crates/shims/rayon/src/lib.rs",
            "pub fn default_threads() -> usize {\n\
             \x20   std::env::var(\"SPH_THREADS\").ok().and_then(|s| s.parse().ok()).unwrap_or(1)\n\
             }\n",
        ),
    ]);
    assert!(
        diags.iter().all(|(_, r, _)| *r != Rule::EnvDeterminism),
        "binaries own their CLI surface and the shim IS the blessed reader: {diags:?}"
    );
}

#[test]
fn r8_blessed_in_sph_serve_library_but_still_fires_elsewhere() {
    let env_reader = "pub fn bind_addr() -> String {\n\
         \x20   std::env::var(\"SPH_SERVE_ADDR\").unwrap_or_default()\n\
         }\n";
    // The server's library half owns operational env surface…
    let diags = lint(&[("crates/sph-serve/src/server.rs", env_reader)]);
    assert!(
        diags.iter().all(|(_, r, _)| *r != Rule::EnvDeterminism),
        "sph-serve's operational env reads are blessed: {diags:?}"
    );
    // …while the identical read in any physics crate still trips R8.
    let diags = lint(&[("crates/sph-domain/src/config.rs", env_reader)]);
    assert_eq!(
        rules_in(&diags, "crates/sph-domain/src/config.rs"),
        vec![Rule::EnvDeterminism],
        "the carve-out must not leak beyond sph-serve: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Suppressions apply to semantic rules like any other rule
// ---------------------------------------------------------------------------

#[test]
fn semantic_findings_honor_inline_suppressions() {
    let diags = lint(&[(
        "crates/sph-core/src/density.rs",
        "pub fn compute_density() -> Vec<u32> {\n\
         \x20   // sph-lint: allow(hot-alloc) — fixture: deliberate one-off\n\
         \x20   let stack: Vec<u32> = vec![0];\n\
         \x20   stack\n\
         }\n",
    )]);
    assert!(
        rules_in(&diags, "crates/sph-core/src/density.rs").is_empty(),
        "a justified suppression must silence R6 (and count as used for S2): {diags:?}"
    );
}

#[test]
fn unused_semantic_suppression_trips_s2() {
    let diags = lint(&[(
        "crates/sph-exa/src/weights.rs",
        "// sph-lint: allow(raw-accumulation) — fixture: nothing fires below\n\
         pub fn nothing_here() -> usize { 1 }\n",
    )]);
    assert_eq!(
        rules_in(&diags, "crates/sph-exa/src/weights.rs"),
        vec![Rule::UnusedSuppression],
        "an unused semantic-rule suppression must be flagged: {diags:?}"
    );
}
