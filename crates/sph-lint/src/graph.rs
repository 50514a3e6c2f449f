//! Workspace symbol table and conservative call graph.
//!
//! Resolution is name-based and deliberately over-approximate: a method
//! call `x.scan(…)` adds an edge to *every* non-test fn named `scan` in
//! the workspace; `Type::scan(…)` narrows to fns whose enclosing
//! `impl`/`trait` targets `Type`. Missing an edge would silence a rule,
//! so ambiguity generally resolves toward *more* edges — the suppression
//! mechanism absorbs false positives — with two precision carve-outs that
//! keep the over-approximation from swallowing the whole workspace:
//!
//! - A qualified call whose type-like qualifier (uppercase initial, e.g.
//!   `Vec::new(…)`, or a primitive, e.g. `usize::from(…)`) matches no
//!   workspace impl resolves to *nothing*: it is a std/external
//!   constructor, and falling back name-wide would make every local `new`
//!   or `from` reachable from everywhere. Other lowercase qualifiers
//!   (`math::dot(…)`) are module paths and still fall back name-wide.
//! - Shim fns are call-graph *barriers*: edges lead into them but never
//!   out. The rayon shim's dispatch machinery executes user closures, but
//!   those closures are lexically owned by the calling fn, so cutting the
//!   shim's own outgoing edges (thread plumbing, bookkeeping) loses no
//!   real hot-path coverage.
//!
//! Functions inside `#[cfg(test)]` / `#[test]` items are indexed (their
//! bodies still get owners) but are excluded as resolution *targets*:
//! test helpers sharing a hot-path name must not pull test code into the
//! reachable set.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::items::{self, Item, ItemKind};
use crate::lexer::{Token, TokenKind};
use crate::rules::{self, FileContext};

/// One source file, lexed and parsed, ready for the semantic passes.
#[derive(Debug)]
pub struct ParsedFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    pub src: String,
    pub ctx: FileContext,
    /// Full token stream (comments included; suppressions live here).
    pub tokens: Vec<Token>,
    /// Code tokens only (comments filtered) — what the matchers walk.
    pub code: Vec<Token>,
    pub items: Vec<Item>,
    /// Byte ranges of `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<Range<usize>>,
}

impl ParsedFile {
    pub fn parse(rel_path: String, src: String, ctx: FileContext) -> ParsedFile {
        let tokens = crate::lexer::lex(&src);
        let code: Vec<Token> = tokens.iter().filter(|t| !t.is_comment()).copied().collect();
        let items = items::parse_items(&src, &code);
        let test_ranges = rules::test_item_ranges(&src, &code);
        ParsedFile { rel_path, src, ctx, tokens, code, items, test_ranges }
    }

    /// Is byte offset `at` inside a test item?
    pub fn in_test(&self, at: usize) -> bool {
        self.test_ranges.iter().any(|r| r.contains(&at))
    }
}

/// A function node in the call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the file list the graph was built over.
    pub file: usize,
    /// Index into that file's `items`.
    pub item: usize,
    pub name: String,
    pub impl_target: Option<String>,
    pub in_test: bool,
    /// Callee fn indices (deduplicated, sorted).
    pub callees: Vec<usize>,
}

/// How a function was reached from a seed set (BFS predecessor chain).
#[derive(Debug, Clone, Copy)]
pub struct Reach {
    /// The seed fn this node traces back to.
    pub seed: usize,
    /// Predecessor on the BFS path (`None` for the seed itself).
    pub via: Option<usize>,
}

pub struct CallGraph {
    pub fns: Vec<FnNode>,
    /// Non-test fns by name (resolution targets).
    by_name: BTreeMap<String, Vec<usize>>,
    /// Per file: owning fn of each *code token* (innermost fn body).
    owners: Vec<Vec<Option<usize>>>,
}

impl CallGraph {
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut owners: Vec<Vec<Option<usize>>> = Vec::with_capacity(files.len());

        // Pass 1: the symbol table, plus token→fn owner maps. Items are
        // recorded parents-first, so inner fns overwrite their enclosing
        // fn in the owner map.
        for (fi, pf) in files.iter().enumerate() {
            let mut owner = vec![None; pf.code.len()];
            for (ii, item) in pf.items.iter().enumerate() {
                if item.kind != ItemKind::Fn {
                    continue;
                }
                let idx = fns.len();
                let in_test = pf.in_test(item.span.0);
                if let Some((s, e)) = item.body {
                    for o in owner.iter_mut().take(e.min(pf.code.len())).skip(s) {
                        *o = Some(idx);
                    }
                }
                if !in_test {
                    by_name.entry(item.name.clone()).or_default().push(idx);
                }
                fns.push(FnNode {
                    file: fi,
                    item: ii,
                    name: item.name.clone(),
                    impl_target: item.impl_target.clone(),
                    in_test,
                    callees: Vec::new(),
                });
            }
            owners.push(owner);
        }

        let mut graph = CallGraph { fns, by_name, owners };

        // Pass 2: call edges. Shim files are barriers — no outgoing edges.
        for (fi, pf) in files.iter().enumerate() {
            if pf.ctx.is_shim {
                continue;
            }
            graph.extract_calls(fi, pf);
        }
        for node in &mut graph.fns {
            node.callees.sort_unstable();
            node.callees.dedup();
        }
        graph
    }

    /// Owning fn of code token `tok` in file `file`, if any.
    pub fn owner_of(&self, file: usize, tok: usize) -> Option<usize> {
        self.owners.get(file).and_then(|o| o.get(tok).copied().flatten())
    }

    /// BFS from every fn `seeds` selects; returns per-fn reach info.
    pub fn reachable(&self, seeds: &[usize]) -> Vec<Option<Reach>> {
        let mut reach: Vec<Option<Reach>> = vec![None; self.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for &s in seeds {
            if s < self.fns.len() && reach[s].is_none() {
                reach[s] = Some(Reach { seed: s, via: None });
                queue.push(s);
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            let callees = self.fns[cur].callees.clone();
            let seed_idx = reach[cur].map(|r| r.seed).unwrap_or(cur);
            for c in callees {
                if reach[c].is_none() {
                    reach[c] = Some(Reach { seed: seed_idx, via: Some(cur) });
                    queue.push(c);
                }
            }
        }
        reach
    }

    /// Fns selected by a predicate — the usual way to pick seeds.
    pub fn select<F: Fn(&FnNode) -> bool>(&self, pred: F) -> Vec<usize> {
        (0..self.fns.len()).filter(|&i| !self.fns[i].in_test && pred(&self.fns[i])).collect()
    }

    /// Human-readable call chain `seed → … → fn` for diagnostics. Long
    /// chains keep the endpoints and elide the middle.
    pub fn chain(&self, reach: &[Option<Reach>], idx: usize) -> String {
        let mut names: Vec<&str> = Vec::new();
        let mut cur = idx;
        let mut hops = 0usize;
        while hops < 64 {
            names.push(self.fns[cur].name.as_str());
            match reach.get(cur).copied().flatten().and_then(|r| r.via) {
                Some(prev) => cur = prev,
                None => break,
            }
            hops += 1;
        }
        names.reverse();
        if names.len() > 5 {
            let skipped = names.len() - 4;
            format!(
                "{} → {} → … ({} calls) → {} → {}",
                names[0],
                names[1],
                skipped,
                names[names.len() - 2],
                names[names.len() - 1]
            )
        } else {
            names.join(" → ")
        }
    }

    /// Scan one file's code tokens for call sites and add edges from the
    /// owning fn to every resolution candidate.
    fn extract_calls(&mut self, fi: usize, pf: &ParsedFile) {
        let code = &pf.code;
        let text = |k: usize| code.get(k).map(|t| t.text(&pf.src)).unwrap_or("");
        let is_ident = |k: usize| code.get(k).is_some_and(|t| t.kind == TokenKind::Ident);

        let mut edges: Vec<(usize, usize)> = Vec::new();
        for i in 0..code.len() {
            if !is_ident(i) || is_call_keyword(text(i)) {
                continue;
            }
            // `fn name(` is a definition, not a call.
            if i > 0 && text(i - 1) == "fn" {
                continue;
            }
            // The call operator: `(` directly, or through a turbofish
            // `name::<T>(`. A following `!` is a macro, not a fn call.
            let open = if text(i + 1) == "(" {
                Some(i + 1)
            } else if text(i + 1) == "::" && text(i + 2) == "<" {
                skip_angles(&pf.src, code, i + 2).filter(|&j| text(j) == "(")
            } else {
                None
            };
            let Some(_) = open else { continue };
            let Some(owner) = self.owner_of(fi, i) else { continue };

            let name = text(i);
            let prev = if i > 0 { text(i - 1) } else { "" };
            let candidates: Vec<usize> = if prev == "::" && i >= 2 && is_ident(i - 2) {
                let type_like = text(i - 2).starts_with(|c: char| c.is_ascii_uppercase())
                    || PRIMITIVE_TYPES.contains(&text(i - 2));
                let qualifier = if text(i - 2) == "Self" {
                    self.fns[owner].impl_target.clone()
                } else {
                    Some(text(i - 2).to_string())
                };
                let narrowed: Vec<usize> = self
                    .by_name
                    .get(name)
                    .map(|v| {
                        v.iter()
                            .copied()
                            .filter(|&f| self.fns[f].impl_target == qualifier)
                            .collect()
                    })
                    .unwrap_or_default();
                if narrowed.is_empty() && type_like {
                    // `Vec::new(…)`, `u32::try_from(…)`: a type-like
                    // qualifier with no workspace impl is std/external —
                    // resolving name-wide would connect everything.
                    Vec::new()
                } else if narrowed.is_empty() {
                    // Module-path call (`math::dot(…)`): fall back wide.
                    self.by_name.get(name).cloned().unwrap_or_default()
                } else {
                    narrowed
                }
            } else {
                // Free call or `.method(` — resolve by name alone.
                self.by_name.get(name).cloned().unwrap_or_default()
            };
            for c in candidates {
                edges.push((owner, c));
            }
        }
        for (from, to) in edges {
            self.fns[from].callees.push(to);
        }
    }
}

/// Primitive type names: lowercase, yet qualifiers of std impls
/// (`usize::from`, `f64::from_bits`), never module paths.
const PRIMITIVE_TYPES: &[&str] = &[
    "bool", "char", "str", "f32", "f64", "usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8",
    "i16", "i32", "i64", "i128",
];

/// Given `code[open] == "<"`, return the index just past the matching
/// `>` (None when unbalanced). `>>`/`<<` count double.
fn skip_angles(src: &str, code: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0isize;
    let mut j = open;
    while j < code.len() {
        match code[j].text(src) {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            ";" | "{" => return None,
            _ => {}
        }
        if depth <= 0 {
            return Some(j + 1);
        }
        j += 1;
    }
    None
}

/// Identifiers that look like calls syntactically but never are.
fn is_call_keyword(word: &str) -> bool {
    matches!(
        word,
        "if" | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "move"
            | "in"
            | "as"
            | "unsafe"
            | "else"
            | "break"
            | "continue"
            | "let"
            | "ref"
            | "mut"
            | "box"
            | "await"
            | "dyn"
            | "impl"
            | "where"
            | "pub"
            | "use"
            | "mod"
            | "fn"
            | "crate"
            | "super"
            | "static"
            | "const"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "extern"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
            | "assert"
            | "debug_assert"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(files: &[(&str, &str)]) -> Vec<ParsedFile> {
        files
            .iter()
            .map(|(path, src)| {
                let ctx = crate::context_for(std::path::Path::new(path)).unwrap_or(FileContext {
                    crate_name: "test".to_string(),
                    is_binary: false,
                    is_shim: false,
                });
                ParsedFile::parse((*path).to_string(), (*src).to_string(), ctx)
            })
            .collect()
    }

    fn fn_idx(g: &CallGraph, name: &str) -> usize {
        (0..g.fns.len()).find(|&i| g.fns[i].name == name).unwrap()
    }

    #[test]
    fn cross_file_free_fn_edge_and_reachability() {
        let files = parse_all(&[
            ("crates/sph-core/src/a.rs", "pub fn compute_density() { helper(); }"),
            ("crates/sph-core/src/b.rs", "pub fn helper() { leaf(); }\nfn leaf() {}"),
        ]);
        let g = CallGraph::build(&files);
        let seeds = g.select(|f| f.name == "compute_density");
        let reach = g.reachable(&seeds);
        assert!(reach[fn_idx(&g, "helper")].is_some());
        assert!(reach[fn_idx(&g, "leaf")].is_some());
        let chain = g.chain(&reach, fn_idx(&g, "leaf"));
        assert_eq!(chain, "compute_density → helper → leaf");
    }

    #[test]
    fn method_calls_resolve_by_name_over_approximately() {
        let files = parse_all(&[(
            "crates/sph-core/src/a.rs",
            "pub fn compute_forces(g: &G) { g.scan(); }\n\
             struct G; impl G { pub fn scan(&self) {} }\n\
             struct H; impl H { pub fn scan(&self) {} }",
        )]);
        let g = CallGraph::build(&files);
        let reach = g.reachable(&g.select(|f| f.name == "compute_forces"));
        // Both `scan` impls are reachable: ambiguity over-approximates.
        let scans: Vec<usize> = (0..g.fns.len()).filter(|&i| g.fns[i].name == "scan").collect();
        assert_eq!(scans.len(), 2);
        assert!(scans.iter().all(|&s| reach[s].is_some()));
    }

    #[test]
    fn qualified_calls_narrow_by_impl_target() {
        let files = parse_all(&[(
            "crates/sph-core/src/a.rs",
            "pub fn compute_forces() { G::scan(); }\n\
             struct G; impl G { pub fn scan(&self) {} }\n\
             struct H; impl H { pub fn scan(&self) {} }",
        )]);
        let g = CallGraph::build(&files);
        let reach = g.reachable(&g.select(|f| f.name == "compute_forces"));
        let g_scan = (0..g.fns.len())
            .find(|&i| g.fns[i].name == "scan" && g.fns[i].impl_target.as_deref() == Some("G"))
            .unwrap();
        let h_scan = (0..g.fns.len())
            .find(|&i| g.fns[i].name == "scan" && g.fns[i].impl_target.as_deref() == Some("H"))
            .unwrap();
        assert!(reach[g_scan].is_some());
        assert!(reach[h_scan].is_none());
    }

    #[test]
    fn external_type_constructors_resolve_to_nothing() {
        let files = parse_all(&[(
            "crates/sph-core/src/a.rs",
            "pub fn compute_density() { let v = Vec::new(); }\n\
             struct G; impl G { pub fn new() -> G { G } }",
        )]);
        let g = CallGraph::build(&files);
        let reach = g.reachable(&g.select(|f| f.name == "compute_density"));
        // `Vec` has no workspace impl: the call must NOT leak to `G::new`.
        assert!(reach[fn_idx(&g, "new")].is_none());
    }

    #[test]
    fn shim_fns_are_call_graph_barriers() {
        let files = parse_all(&[
            (
                "crates/shims/rayon/src/lib.rs",
                "pub fn run_tasks() { plumbing(); }\npub fn plumbing() {}",
            ),
            ("crates/sph-core/src/a.rs", "pub fn compute_density() { run_tasks(); }"),
        ]);
        let g = CallGraph::build(&files);
        let reach = g.reachable(&g.select(|f| f.name == "compute_density"));
        assert!(reach[fn_idx(&g, "run_tasks")].is_some(), "edges lead into the shim");
        assert!(reach[fn_idx(&g, "plumbing")].is_none(), "but never out of it");
    }

    #[test]
    fn test_fns_are_not_resolution_targets() {
        let files = parse_all(&[(
            "crates/sph-core/src/a.rs",
            "pub fn compute_density() { helper(); }\n\
             #[cfg(test)] mod tests { pub fn helper() { super::leaky(); } }\n\
             pub fn leaky() {}",
        )]);
        let g = CallGraph::build(&files);
        let reach = g.reachable(&g.select(|f| f.name == "compute_density"));
        assert!(reach[fn_idx(&g, "leaky")].is_none(), "test helper must not bridge");
    }

    #[test]
    fn macro_names_are_not_calls() {
        let files = parse_all(&[(
            "crates/sph-core/src/a.rs",
            "pub fn compute_density() { trace!(\"x\"); }\npub fn trace() {}",
        )]);
        let g = CallGraph::build(&files);
        let reach = g.reachable(&g.select(|f| f.name == "compute_density"));
        assert!(reach[fn_idx(&g, "trace")].is_none());
    }

    #[test]
    fn turbofish_calls_resolve() {
        let files = parse_all(&[(
            "crates/sph-core/src/a.rs",
            "pub fn compute_density() { parse::<f64>(); }\npub fn parse() {}",
        )]);
        let g = CallGraph::build(&files);
        let reach = g.reachable(&g.select(|f| f.name == "compute_density"));
        assert!(reach[fn_idx(&g, "parse")].is_some());
    }
}
