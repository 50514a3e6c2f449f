//! The rule catalogue, the file contexts that scope it, and the
//! inline-suppression resolver every finding passes through.
//!
//! # Rule catalogue
//!
//! | id | slug                  | contract it enforces |
//! |----|-----------------------|----------------------|
//! | R2 | `raw-accumulation`    | no bare `+=`/`.sum()`/additive `.fold()` accumulation in the hot-path crates (sph-core, sph-math, sph-tree) or in any fn reachable from a trajectory-feeding `step` — route through `KahanAccumulator` or the fixed-chunk ordered-reduce helpers |
//! | R3 | `panic-path`          | no `unwrap()`/`expect()`/`panic!` in library code paths — return typed `Result`s |
//! | R4 | `undocumented-unsafe` | every `unsafe` needs an adjacent `// SAFETY:` comment (or a `# Safety` doc section) |
//! | R6 | `hot-alloc`           | no `Vec`/`Box`/`String`/`collect` allocation in any fn reachable from the kernel-pass seed set |
//! | R8 | `env-determinism`     | no env/thread-count reads outside the rayon shim, sph-serve and binary CLI surfaces — values that shape physics state must come from explicit config |
//!
//! Ids are stable: R1 and R5 were retired when `clippy.toml` became the
//! one enforcer of the `HashMap`/`HashSet` and clock-read / thread-spawn
//! bans, and R7 was folded into R2. The matchers live in
//! [`crate::semantic`].
//!
//! Two meta rules police the suppression mechanism itself and cannot be
//! suppressed: S1 `unjustified-suppression` (an `allow` without a written
//! justification, or naming an unknown rule) and S2 `unused-suppression`
//! (an `allow` that matched no diagnostic on its line).
//!
//! # Suppressions
//!
//! ```text
//! // sph-lint: allow(rule-slug[, rule-slug…]) — <mandatory justification>
//! ```
//!
//! A trailing comment suppresses its own line; a comment alone on a line
//! suppresses the next line of code. The justification (after `—`, `-`, or
//! `:`) must be at least [`MIN_JUSTIFICATION`] characters of prose.
//!
//! # Contexts
//!
//! `#[cfg(test)]` modules and `#[test]` functions are exempt from all
//! rules. Binaries (`src/bin/`, `src/main.rs`, examples, benches) are CLI
//! surface, not library paths: R3, R8 and the crate-scoped half of R2 do
//! not apply there, while the reachability rules do. Shim crates mirror
//! external crates' internals and only answer for R4.

use crate::graph::ParsedFile;
use crate::lexer::{Token, TokenKind};

/// Minimum length of the prose justification a suppression must carry.
pub const MIN_JUSTIFICATION: usize = 10;

/// Crates whose accumulations are hot-path wherever they sit (rule R2).
pub const HOT_PATH_CRATES: &[&str] = &["sph-core", "sph-math", "sph-tree"];

/// Crates allowed to read the process environment (rule R8) from library
/// code. Binaries are exempt via [`FileContext::is_binary`]; sph-serve's
/// library half owns operational surface (bind address, state directory)
/// that must never shape physics state — the determinism argument is that
/// its job results are produced by crates where R8 still applies.
pub const ENV_READ_CRATES: &[&str] = &["sph-serve"];

/// The enforced rules. `S1`/`S2` police the suppression mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R2: bare `+=`/`.sum()`/additive `.fold()` accumulation in a hot-path
    /// crate or on a trajectory-feeding path.
    RawAccumulation,
    /// R3: `unwrap()`/`expect()`/`panic!` in library code paths.
    PanicPath,
    /// R4: `unsafe` without an adjacent `// SAFETY:` justification.
    UndocumentedUnsafe,
    /// R6: allocation in a fn reachable from the kernel-pass seeds.
    HotAlloc,
    /// R8: env/thread-count reads outside the shim / binary surfaces.
    EnvDeterminism,
    /// S1: suppression without a written justification (or unknown rule).
    UnjustifiedSuppression,
    /// S2: suppression that matched no diagnostic.
    UnusedSuppression,
}

impl Rule {
    pub const ALL: [Rule; 5] = [
        Rule::RawAccumulation,
        Rule::PanicPath,
        Rule::UndocumentedUnsafe,
        Rule::HotAlloc,
        Rule::EnvDeterminism,
    ];

    /// Short id (`R2`…`R8`, `S1`/`S2`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::RawAccumulation => "R2",
            Rule::PanicPath => "R3",
            Rule::UndocumentedUnsafe => "R4",
            Rule::HotAlloc => "R6",
            Rule::EnvDeterminism => "R8",
            Rule::UnjustifiedSuppression => "S1",
            Rule::UnusedSuppression => "S2",
        }
    }

    /// The slug used in `sph-lint: allow(…)` comments.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::RawAccumulation => "raw-accumulation",
            Rule::PanicPath => "panic-path",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::HotAlloc => "hot-alloc",
            Rule::EnvDeterminism => "env-determinism",
            Rule::UnjustifiedSuppression => "unjustified-suppression",
            Rule::UnusedSuppression => "unused-suppression",
        }
    }

    /// Parse a slug from a suppression comment. Meta rules cannot be
    /// suppressed, so they are not recognised here.
    pub fn from_slug(slug: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.slug() == slug)
    }

    /// One-line description for `--list-rules` and the README catalogue.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::RawAccumulation => {
                "bare floating-point accumulation in a hot-path crate or on a \
                 trajectory-feeding path; route through KahanAccumulator or the \
                 fixed-chunk ordered-reduce helpers"
            }
            Rule::PanicPath => {
                "unwrap()/expect()/panic! in a library code path; return a typed Result"
            }
            Rule::UndocumentedUnsafe => {
                "unsafe without an adjacent // SAFETY: comment (or # Safety doc section)"
            }
            Rule::HotAlloc => {
                "allocation (Vec/Box/String/collect) in a function reachable from the \
                 kernel-pass seed set; use per-chunk scratch or pre-sized buffers"
            }
            Rule::EnvDeterminism => {
                "env/thread-count read in library code outside the sph-serve operational \
                 surface; values that can shape physics state must come from explicit \
                 config, not the process environment"
            }
            Rule::UnjustifiedSuppression => "sph-lint suppression without a written justification",
            Rule::UnusedSuppression => "sph-lint suppression that matched no diagnostic",
        }
    }
}

/// Where a file sits in the workspace; decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate directory name (`sph-core`, …); `shims/rayon` for shims.
    pub crate_name: String,
    /// Under `src/bin/` or named `main.rs`: CLI surface, not library path.
    pub is_binary: bool,
    /// Under `crates/shims/`: mirrors an external crate's internals.
    pub is_shim: bool,
}

impl FileContext {
    /// Does `rule` apply to files in this context? For R2 and R6 this is a
    /// necessary precondition only: the walk additionally asks where the
    /// site sits (hot-path crate, or a fn reachable from the relevant
    /// seed set).
    pub fn applies(&self, rule: Rule) -> bool {
        if self.is_shim {
            return rule == Rule::UndocumentedUnsafe;
        }
        match rule {
            Rule::PanicPath => !self.is_binary,
            Rule::EnvDeterminism => {
                !self.is_binary && !ENV_READ_CRATES.contains(&self.crate_name.as_str())
            }
            _ => true,
        }
    }

    /// Library code of a hot-path crate: R2 applies to every site in it.
    pub(crate) fn is_hot_library(&self) -> bool {
        !self.is_shim && !self.is_binary && HOT_PATH_CRATES.contains(&self.crate_name.as_str())
    }
}

/// One finding, positioned in a file.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: Rule,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// An `sph-lint: allow(…)` parsed out of a comment.
#[derive(Debug)]
struct Suppression {
    rules: Vec<Rule>,
    /// Slugs that named no known rule (reported as S1).
    unknown: Vec<String>,
    /// Line the comment starts on (for S1/S2 positioning).
    comment_line: u32,
    /// Line of code this suppression covers.
    covers_line: u32,
    justified: bool,
    used: bool,
}

/// Route one file's findings (already test-filtered) through suppression
/// matching, then append the S1/S2 findings about the suppressions.
pub(crate) fn resolve_suppressions(pf: &ParsedFile, found: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut suppressions = collect_suppressions(pf);
    let mut out = Vec::new();
    for d in found {
        let suppressed =
            suppressions.iter_mut().find(|s| s.covers_line == d.line && s.rules.contains(&d.rule));
        match suppressed {
            Some(s) => s.used = true,
            None => out.push(d),
        }
    }

    for s in &suppressions {
        if !s.justified {
            out.push(Diagnostic {
                rule: Rule::UnjustifiedSuppression,
                line: s.comment_line,
                col: 1,
                message: "suppression needs a written justification: \
                          `// sph-lint: allow(rule) — <why this is sound>`"
                    .to_string(),
            });
        }
        for slug in &s.unknown {
            out.push(Diagnostic {
                rule: Rule::UnjustifiedSuppression,
                line: s.comment_line,
                col: 1,
                message: format!("suppression names unknown rule `{slug}`"),
            });
        }
        if s.justified && s.unknown.is_empty() && !s.used {
            out.push(Diagnostic {
                rule: Rule::UnusedSuppression,
                line: s.comment_line,
                col: 1,
                message: "suppression matched no diagnostic on its line; remove it".to_string(),
            });
        }
    }

    out.sort_by_key(|d| (d.line, d.col, d.rule));
    out
}

/// Byte ranges of `#[cfg(test)]` / `#[test]` items (body plus attribute).
pub(crate) fn test_item_ranges(src: &str, code: &[Token]) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if is_test_attribute(src, code, i) {
            let start = code[i].start;
            // Skip this attribute and any further ones on the same item.
            let mut j = skip_attribute(src, code, i);
            while j < code.len() && code[j].text(src) == "#" {
                j = skip_attribute(src, code, j);
            }
            // The item ends at the matching `}` of its first block, or at a
            // `;` before any block opens (e.g. `#[cfg(test)] use …;`).
            let mut depth = 0usize;
            while j < code.len() {
                match code[j].text(src) {
                    "{" => depth += 1,
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let end = if j < code.len() { code[j].end } else { src.len() };
            ranges.push(start..end);
            i = j + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Does `#` at `code[i]` open `#[cfg(test)]` or `#[test]`?
fn is_test_attribute(src: &str, code: &[Token], i: usize) -> bool {
    let text = |k: usize| code.get(k).map(|t| t.text(src)).unwrap_or("");
    text(i) == "#"
        && text(i + 1) == "["
        && ((text(i + 2) == "test" && text(i + 3) == "]")
            || (text(i + 2) == "cfg"
                && text(i + 3) == "("
                && text(i + 4) == "test"
                && text(i + 5) == ")"))
}

/// Given `code[i] == "#"` starting an attribute, return the index just past
/// its closing `]` (bracket-depth aware, so `#[cfg(any(test, foo))]` works).
fn skip_attribute(src: &str, code: &[Token], i: usize) -> usize {
    if code.get(i + 1).map(|t| t.text(src)) != Some("[") {
        return i + 1;
    }
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < code.len() {
        match code[j].text(src) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Is there a SAFETY justification near line `line` (where `unsafe` sits)?
///
/// Accepted evidence: a comment containing `SAFETY:` starting at most
/// 6 lines above (multi-line justifications keep the marker on top) or
/// trailing on the same line, or a doc-comment line containing `# Safety`
/// at most 12 lines above (doc sections attach to the `unsafe fn` they
/// document, with the prose in between).
pub(crate) fn has_safety_evidence(src: &str, tokens: &[Token], line: u32) -> bool {
    tokens.iter().any(|t| {
        if !t.is_comment() || t.line > line {
            return false;
        }
        let text = t.text(src);
        let dist = line - t.line;
        (dist <= 6 && text.contains("SAFETY:"))
            || (dist <= 12 && t.kind == TokenKind::DocComment && text.contains("# Safety"))
    })
}

fn collect_suppressions(pf: &ParsedFile) -> Vec<Suppression> {
    let (src, tokens) = (pf.src.as_str(), pf.tokens.as_slice());
    let mut out = Vec::new();
    for (idx, tok) in tokens.iter().enumerate() {
        // Suppressions live in plain comments only: doc comments are
        // documentation (they may *describe* the syntax, as this crate's
        // own rustdoc does) and never suppress anything. Suppressions
        // inside test items are dead weight; ignore them.
        if !tok.is_comment() || tok.kind == TokenKind::DocComment || pf.in_test(tok.start) {
            continue;
        }
        let Some((rules, unknown, justified)) = parse_suppression(tok.text(src)) else { continue };
        // A trailing comment covers its own line; a standalone comment
        // covers the next code line.
        let standalone = idx == 0 || tokens[idx - 1].line < tok.line;
        let covers_line = if standalone {
            tokens[idx + 1..].iter().find(|t| !t.is_comment()).map(|t| t.line).unwrap_or(tok.line)
        } else {
            tok.line
        };
        out.push(Suppression {
            rules,
            unknown,
            comment_line: tok.line,
            covers_line,
            justified,
            used: false,
        });
    }
    out
}

/// Parse `sph-lint: allow(a, b) — justification` from a comment's text.
/// Returns `(known rules, unknown slugs, justified)`.
fn parse_suppression(comment: &str) -> Option<(Vec<Rule>, Vec<String>, bool)> {
    let marker = "sph-lint:";
    let rest = comment[comment.find(marker)? + marker.len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let (list, mut tail) = (&rest[..close], &rest[close + 1..]);

    let mut rules = Vec::new();
    let mut unknown = Vec::new();
    for slug in list.split(',') {
        let slug = slug.trim();
        if slug.is_empty() {
            continue;
        }
        match Rule::from_slug(slug) {
            Some(r) => rules.push(r),
            None => unknown.push(slug.to_string()),
        }
    }

    // Justification: strip separators, then demand real prose.
    tail = tail.trim_start();
    for sep in ["—", "--", "-", ":", ";"] {
        if let Some(stripped) = tail.strip_prefix(sep) {
            tail = stripped;
            break;
        }
    }
    let just = tail.trim().trim_end_matches("*/").trim();
    Some((rules, unknown, just.chars().count() >= MIN_JUSTIFICATION))
}
