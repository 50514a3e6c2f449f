//! Fixture tests: every rule must fire on a seeded violation and stay
//! quiet on the idiomatic alternative. Each fixture is an inline source
//! string linted under a controlled [`FileContext`], so the tests pin the
//! rule semantics independently of the workspace sweep.

use sph_lint::rules::Rule;
use sph_lint::{lint_source, FileContext};

/// A library file in a hot-path crate — every rule applies.
fn hot_ctx() -> FileContext {
    FileContext { crate_name: "sph-core".into(), is_binary: false, is_shim: false }
}

/// A library file in a non-hot-path crate — R2 applies only to fns
/// reachable from a trajectory `step`.
fn warm_ctx() -> FileContext {
    FileContext { crate_name: "sph-ft".into(), is_binary: false, is_shim: false }
}

fn rules_hit(src: &str, ctx: &FileContext) -> Vec<Rule> {
    lint_source(src, ctx).into_iter().map(|d| d.rule).collect()
}

// --- R2: raw accumulation ----------------------------------------------

#[test]
fn r2_fires_on_bare_accumulation_in_loop() {
    let src = "pub fn f(v: &[f64]) -> f64 {\n\
                   let mut acc = 0.0;\n\
                   for &x in v {\n        acc += x * 2.0;\n    }\n\
                   acc\n}\n";
    assert!(rules_hit(src, &hot_ctx()).contains(&Rule::RawAccumulation));
}

#[test]
fn r2_fires_on_iterator_sum() {
    let src = "pub fn f(v: &[f64]) -> f64 { v.iter().sum() }\n";
    assert!(rules_hit(src, &hot_ctx()).contains(&Rule::RawAccumulation));
}

#[test]
fn r2_quiet_outside_loops_and_outside_hot_crates() {
    // A single `+=` outside any loop is not an accumulation loop.
    let src = "pub fn f(mut a: f64, b: f64) -> f64 {\n    a += b;\n    a\n}\n";
    assert!(rules_hit(src, &hot_ctx()).is_empty());

    // The same loop in a non-hot-path crate is out of scope.
    let src = "pub fn f(v: &[f64]) -> f64 {\n\
                   let mut acc = 0.0;\n\
                   for &x in v {\n        acc += x;\n    }\n    acc\n}\n";
    assert!(rules_hit(src, &warm_ctx()).is_empty());
}

#[test]
fn r2_quiet_on_counter_increment() {
    // `i += 1` is the idiomatic counter, not an FP reduction.
    let src = "pub fn f(v: &[f64]) -> usize {\n\
                   let mut n = 0;\n\
                   for &x in v {\n        if x > 0.0 {\n            n += 1;\n        }\n    }\n\
                   n\n}\n";
    assert!(rules_hit(src, &hot_ctx()).is_empty());
}

#[test]
fn r2_quiet_on_exact_integer_sum_in_hot_crate() {
    // The exact-integer exemption holds in hot crates too, not only on
    // trajectory-feeding paths.
    let src = "pub fn f(v: &[u32]) -> usize { v.iter().map(|&x| x as usize).sum::<usize>() }\n";
    assert!(rules_hit(src, &hot_ctx()).is_empty());
}

#[test]
fn r2_impl_for_and_higher_ranked_bounds_are_not_loops() {
    // The `for` of a trait impl header or a `for<'a>` bound opens no loop:
    // a statement-level `+=` in those bodies is a single update.
    let src = "pub struct V(f64);\n\
               impl std::ops::AddAssign for V {\n\
               \x20   fn add_assign(&mut self, o: V) {\n\
               \x20       let mut a = self.0;\n\
               \x20       a += o.0;\n\
               \x20       self.0 = a;\n\
               \x20   }\n\
               }\n\
               pub fn g<F>(f: F, b: f64) -> f64 where F: for<'a> Fn(&'a f64) -> f64 {\n\
               \x20   let mut a = 0.0;\n\
               \x20   a += f(&b);\n\
               \x20   a\n\
               }\n";
    assert!(rules_hit(src, &hot_ctx()).is_empty(), "{:?}", lint_source(src, &hot_ctx()));

    // A real loop inside the same impl still fires.
    let src = "pub struct V(f64);\n\
               impl V {\n\
               \x20   fn total(xs: &[f64]) -> f64 {\n\
               \x20       let mut a = 0.0;\n\
               \x20       for &x in xs {\n\
               \x20           a += x;\n\
               \x20       }\n\
               \x20       a\n\
               \x20   }\n\
               }\n";
    assert_eq!(rules_hit(src, &hot_ctx()), vec![Rule::RawAccumulation]);
}

// --- R3: panic paths ----------------------------------------------------

#[test]
fn r3_fires_on_unwrap_expect_panic() {
    for snippet in [
        "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n",
        "pub fn f(o: Option<u32>) -> u32 { o.expect(\"present\") }\n",
        "pub fn f() { panic!(\"boom\"); }\n",
    ] {
        let hits = rules_hit(snippet, &warm_ctx());
        assert!(hits.contains(&Rule::PanicPath), "{snippet:?} must trip R3: {hits:?}");
    }
}

#[test]
fn r3_quiet_in_tests_and_binaries() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n\
               fn t() { Some(1).unwrap(); }\n}\n";
    assert!(rules_hit(src, &warm_ctx()).is_empty());

    let bin = FileContext { crate_name: "sph-bench".into(), is_binary: true, is_shim: false };
    let src = "fn main() { std::env::args().next().unwrap(); }\n";
    assert!(rules_hit(src, &bin).is_empty());
}

#[test]
fn r3_quiet_on_unwrap_or_family() {
    let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }\n\
               pub fn g(o: Option<u32>) -> u32 { o.unwrap_or_else(|| 1) }\n\
               pub fn h(o: Option<u32>) -> u32 { o.unwrap_or_default() }\n";
    assert!(rules_hit(src, &warm_ctx()).is_empty());
}

// --- R4: undocumented unsafe -------------------------------------------

#[test]
fn r4_fires_on_bare_unsafe() {
    let src = "pub fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
    assert!(rules_hit(src, &warm_ctx()).contains(&Rule::UndocumentedUnsafe));
}

#[test]
fn r4_satisfied_by_safety_comment_or_doc_section() {
    let src = "pub fn f(p: *const u32) -> u32 {\n\
                   // SAFETY: caller guarantees `p` is valid and aligned.\n\
                   unsafe { *p }\n}\n";
    assert!(rules_hit(src, &warm_ctx()).is_empty());

    let src = "/// Reads through a raw pointer.\n///\n/// # Safety\n///\n\
               /// `p` must be valid for reads.\n\
               pub unsafe fn f(p: *const u32) -> u32 {\n    *p\n}\n";
    assert!(rules_hit(src, &warm_ctx()).is_empty());
}

#[test]
fn r4_applies_even_in_shims() {
    // Shims are exempt from everything EXCEPT the SAFETY-comment rule.
    let shim = FileContext { crate_name: "shims/rayon".into(), is_binary: false, is_shim: true };
    let src = "pub fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
    assert_eq!(rules_hit(src, &shim), vec![Rule::UndocumentedUnsafe]);

    // ...and everything else stays quiet in a shim.
    let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    assert!(rules_hit(src, &shim).is_empty());
}

// --- One pipeline --------------------------------------------------------

#[test]
fn lint_source_runs_the_call_graph_rules() {
    // A single source string goes through the whole workspace pipeline,
    // so a kernel-pass seed allocating in its own body trips R6.
    let src = "pub fn compute_density(n: usize) -> usize {\n\
               \x20   let v: Vec<f64> = Vec::new();\n\
               \x20   v.len() + n\n\
               }\n";
    assert_eq!(rules_hit(src, &warm_ctx()), vec![Rule::HotAlloc]);
}

// --- Suppressions -------------------------------------------------------

#[test]
fn justified_suppression_silences_the_diagnostic() {
    let src = "pub fn f(o: Option<u32>) -> u32 {\n\
                   // sph-lint: allow(panic-path) — fixture: invariant checked by caller.\n\
                   o.unwrap()\n}\n";
    assert!(rules_hit(src, &warm_ctx()).is_empty());
}

#[test]
fn trailing_suppression_covers_its_own_line() {
    let src = "pub fn f(o: Option<u32>) -> u32 {\n\
                   o.unwrap() // sph-lint: allow(panic-path) — fixture: checked by caller.\n\
               }\n";
    assert!(rules_hit(src, &warm_ctx()).is_empty());
}

#[test]
fn s1_fires_on_missing_justification_and_unknown_rule() {
    // No justification text at all.
    let src = "pub fn f(o: Option<u32>) -> u32 {\n\
                   // sph-lint: allow(panic-path)\n\
                   o.unwrap()\n}\n";
    let hits = rules_hit(src, &warm_ctx());
    // The suppression still masks its target (one clear message instead of
    // two), but S1 keeps the gate red until a justification is written.
    assert_eq!(hits, vec![Rule::UnjustifiedSuppression]);

    // Unknown rule slug.
    let src = "pub fn f() {\n\
                   // sph-lint: allow(made-up-rule) — plenty of justification here.\n\
                   let x = 1;\n    let _ = x;\n}\n";
    assert!(rules_hit(src, &warm_ctx()).contains(&Rule::UnjustifiedSuppression));
}

#[test]
fn s2_fires_on_unused_suppression() {
    let src = "pub fn f() -> u32 {\n\
                   // sph-lint: allow(panic-path) — fixture: nothing to suppress below.\n\
                   42\n}\n";
    assert_eq!(rules_hit(src, &warm_ctx()), vec![Rule::UnusedSuppression]);
}

#[test]
fn one_comment_can_suppress_multiple_rules() {
    let src = "pub fn f(v: &[f64], o: Option<f64>) -> f64 {\n\
                   let mut acc = 0.0;\n\
                   for &x in v {\n\
                       // sph-lint: allow(raw-accumulation, panic-path) — fixture: both at once.\n\
                       acc += x * o.unwrap();\n    }\n\
                   acc\n}\n";
    assert!(rules_hit(src, &hot_ctx()).is_empty());
}

// --- Tricky-source robustness ------------------------------------------

#[test]
fn violations_inside_strings_and_comments_do_not_fire() {
    let src = "pub fn f() -> &'static str {\n\
                   // This mentions HashMap and Instant::now() and .unwrap().\n\
                   \"HashMap::new().unwrap(); std::time::Instant::now()\"\n}\n";
    assert!(rules_hit(src, &warm_ctx()).is_empty());

    let src = "pub fn f() -> &'static str {\n\
                   r#\"thread::spawn(|| panic!(\"x\"))\"#\n}\n";
    assert!(rules_hit(src, &warm_ctx()).is_empty());
}

#[test]
fn diagnostics_carry_one_based_positions() {
    let src = "pub fn f(o: Option<u32>) -> u32 {\n    o.unwrap()\n}\n";
    let diags = lint_source(src, &warm_ctx());
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 2);
    assert!(diags[0].col > 1);
}

// --- Rule metadata ------------------------------------------------------

#[test]
fn slugs_round_trip() {
    for rule in Rule::ALL {
        assert_eq!(Rule::from_slug(rule.slug()), Some(rule), "{rule:?}");
        assert!(!rule.describe().is_empty());
        assert!(rule.id().starts_with('R'));
    }
    // Meta rules are not suppressible.
    assert_eq!(Rule::from_slug("unjustified-suppression"), None);
    assert_eq!(Rule::from_slug("unused-suppression"), None);
}
