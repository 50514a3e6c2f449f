//! Property tests of the item parser: on arbitrary token soup the parser
//! must not panic, item spans must be in-bounds and either disjoint or
//! properly nested, and every `fn` keyword
//! followed by a name must be covered by exactly one `Fn` item.

use proptest::prelude::*;
use sph_lint::items::{is_reserved, parse_items, Item, ItemKind};
use sph_lint::lexer::{lex, Token, TokenKind};

fn code_tokens(src: &str) -> Vec<Token> {
    lex(src).into_iter().filter(|t| !t.is_comment()).collect()
}

/// Spans are in-bounds and any two are disjoint or nested.
fn check_span_nesting(src: &str, items: &[Item]) {
    for it in items {
        assert!(it.span.0 <= it.span.1, "inverted span {:?} for {}", it.span, it.name);
        assert!(it.span.1 <= src.len(), "span {:?} out of bounds", it.span);
    }
    for (i, a) in items.iter().enumerate() {
        for b in items.iter().skip(i + 1) {
            let disjoint = a.span.1 <= b.span.0 || b.span.1 <= a.span.0;
            let a_in_b = b.span.0 <= a.span.0 && a.span.1 <= b.span.1;
            let b_in_a = a.span.0 <= b.span.0 && b.span.1 <= a.span.1;
            assert!(
                disjoint || a_in_b || b_in_a,
                "partially overlapping spans: {} {:?} vs {} {:?} in {src:?}",
                a.name,
                a.span,
                b.name,
                b.span
            );
        }
    }
}

/// Restates `Parser::fn_name`: does a named fn start at keyword index `k`?
fn fn_starts_at(src: &str, code: &[Token], k: usize) -> bool {
    let text = |j: usize| code.get(j).map(|t| t.text(src)).unwrap_or("");
    let is_ident = |j: usize| code.get(j).is_some_and(|t| t.kind == TokenKind::Ident);
    if is_ident(k + 1) && text(k + 1) == "r" && text(k + 2) == "#" && is_ident(k + 3) {
        return true;
    }
    is_ident(k + 1) && !is_reserved(text(k + 1))
}

/// Every named `fn` keyword token is the keyword of exactly one Fn item.
fn check_fn_coverage(src: &str, code: &[Token], items: &[Item]) {
    for (k, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text(src) != "fn" {
            continue;
        }
        let owners: Vec<&Item> =
            items.iter().filter(|it| it.kind == ItemKind::Fn && it.keyword_tok == k).collect();
        if fn_starts_at(src, code, k) {
            assert_eq!(
                owners.len(),
                1,
                "fn token at code index {k} covered by {} items in {src:?}",
                owners.len()
            );
            let it = owners[0];
            assert!(
                it.span.0 <= t.start && t.end <= it.span.1,
                "fn keyword {:?} outside its item span {:?} in {src:?}",
                (t.start, t.end),
                it.span
            );
        } else {
            assert!(owners.is_empty(), "unnamed fn token at {k} produced an item in {src:?}");
        }
    }
}

/// Body token ranges are well-formed and lie inside the item's byte span.
fn check_bodies(src: &str, code: &[Token], items: &[Item]) {
    for it in items {
        let Some((s, e)) = it.body else { continue };
        assert!(s <= e, "inverted body range {:?} for {}", it.body, it.name);
        assert!(e <= code.len(), "body range {:?} out of bounds", it.body);
        for t in &code[s..e] {
            assert!(
                it.span.0 <= t.start && t.end <= it.span.1,
                "body token {:?} escapes span {:?} of {} in {src:?}",
                (t.start, t.end),
                it.span,
                it.name
            );
        }
    }
}

fn check_all(src: &str) {
    let code = code_tokens(src);
    let items = parse_items(src, &code);
    check_span_nesting(src, &items);
    check_fn_coverage(src, &code, &items);
    check_bodies(src, &code, &items);
}

/// Item-flavoured fragments: headers, bodies, braces that do not balance,
/// raw identifiers, fn-pointer types, truncation bait.
const FRAGMENTS: &[&str] = &[
    "fn",
    "fn f",
    "fn f()",
    "fn f() {}",
    "fn r#match() {}",
    "fn f(g: fn(i32) -> i32)",
    "pub fn h() -> impl Iterator<Item = u8> { std::iter::empty() }",
    "impl",
    "impl T {",
    "impl Kernel for CubicSpline {",
    "impl<T: Clone> Grid<T> {",
    "trait K {",
    "trait K { fn w(&self); }",
    "mod m {",
    "mod m;",
    "use a::b::C;",
    "use a::{b, c};",
    "where",
    "for",
    "{",
    "}",
    "{}",
    "(",
    ")",
    ";",
    "->",
    "::",
    "<",
    ">",
    ">>",
    "#",
    "r",
    "x",
    "let x = 1;",
    "// fn commented_out() {}\n",
    "/* fn also_commented() {} */",
    "\"fn in_a_string() {}\"",
    "'a",
    "1.5e3",
    "\n",
    " ",
];

fn fragment_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..FRAGMENTS.len(), 0..40)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect::<Vec<_>>().join(" "))
}

fn byte_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..120)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #[test]
    fn fragment_soup_invariants_hold(src in fragment_soup()) {
        check_all(&src);
    }

    #[test]
    fn arbitrary_bytes_invariants_hold(src in byte_soup()) {
        check_all(&src);
    }
}

/// Pin the invariants on one realistic file too, not just soup.
#[test]
fn realistic_source_invariants_hold() {
    check_all(
        "use sph_math::Vec3;\n\
         pub struct CellGrid { n: usize }\n\
         impl CellGrid {\n\
             pub fn scan_one_image(&self, p: Vec3) -> usize {\n\
                 fn helper(x: usize) -> usize { x + 1 }\n\
                 helper(self.n)\n\
             }\n\
         }\n\
         pub trait Kernel { fn w(&self, q: f64) -> f64; }\n",
    );
}
