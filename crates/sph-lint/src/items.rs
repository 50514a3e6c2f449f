//! Lightweight item parser: recovers `fn`/`impl`/`trait`/`mod` structure
//! from the lexer's token stream — names, nesting, byte spans, and body
//! token ranges — without building a full AST.
//!
//! The parser is a single linear scan with a scope stack. It is built to
//! the same contract as the lexer: any byte soup goes in, items with
//! properly nested spans come out. Guarantees (property-tested in
//! `tests/item_props.rs`):
//!
//! - item spans are in-bounds and either disjoint or properly nested;
//! - every `fn` keyword followed by an identifier becomes exactly one
//!   `Fn` item whose span covers that keyword;
//! - `body` token ranges lie strictly inside the recording item's span.
//!
//! On real Rust it additionally recovers the `impl`/`trait` target type a
//! method belongs to (`impl CellGrid { fn scan(..) }` → `scan` has
//! `impl_target == Some("CellGrid")`), which the call graph uses to
//! narrow `Type::method(…)` call resolution.

use crate::lexer::{Token, TokenKind};

/// What kind of item a node records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    Fn,
    Impl,
    Trait,
    Mod,
}

/// One recovered item. Indices refer to the *code* token slice the parser
/// was given (comments filtered out), not to the raw token stream.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: ItemKind,
    /// Item name: the fn/trait/mod identifier or the impl target type.
    pub name: String,
    /// Byte span from the introducing keyword to the closing `}`/`;` (or
    /// EOF when the source is truncated).
    pub span: (usize, usize),
    /// Code-token index range of the body between the braces, exclusive
    /// of the braces themselves; `None` for bodyless items.
    pub body: Option<(usize, usize)>,
    /// Code-token index of the introducing keyword.
    pub keyword_tok: usize,
    /// For `Fn` items: the enclosing `impl`/`trait` target, when any.
    pub impl_target: Option<String>,
}

/// Parse items out of `code` (comment-free tokens over `src`).
pub fn parse_items(src: &str, code: &[Token]) -> Vec<Item> {
    Parser { src, code, items: Vec::new(), scopes: Vec::new(), pending: None }.run()
}

/// One brace scope; `item` is set when the `{` belonged to an item header.
struct BraceScope {
    item: Option<usize>,
}

struct Parser<'a> {
    src: &'a str,
    code: &'a [Token],
    items: Vec<Item>,
    scopes: Vec<BraceScope>,
    /// Item whose header has started but whose `{` or `;` has not been
    /// seen yet.
    pending: Option<usize>,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &'a str {
        self.code.get(i).map(|t| t.text(self.src)).unwrap_or("")
    }

    fn is_ident(&self, i: usize) -> bool {
        self.code.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn run(mut self) -> Vec<Item> {
        let mut i = 0usize;
        while i < self.code.len() {
            let tt = self.text(i);
            let is_kw = self.is_ident(i);
            match tt {
                // `fn` always starts an item when a name follows — even
                // mid-header in soup, so every named `fn` token is covered.
                "fn" if is_kw => {
                    if let Some((name, after)) = self.fn_name(i + 1) {
                        self.start_item(ItemKind::Fn, name, i);
                        i = after;
                        continue;
                    }
                }
                // The other item keywords are ignored while a header is
                // pending: `impl` legitimately appears inside fn
                // signatures (`-> impl Iterator`, `x: impl Fn()`).
                "impl" if is_kw && self.pending.is_none() => {
                    let name = self.impl_target(i + 1);
                    self.start_item(ItemKind::Impl, name, i);
                }
                "trait" if is_kw && self.pending.is_none() && self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_string();
                    self.start_item(ItemKind::Trait, name, i);
                }
                "mod" if is_kw && self.pending.is_none() && self.is_ident(i + 1) => {
                    let name = self.text(i + 1).to_string();
                    self.start_item(ItemKind::Mod, name, i);
                }
                "{" => {
                    let item = self.pending.take();
                    if let Some(idx) = item {
                        // Body starts after this brace.
                        self.items[idx].body = Some((i + 1, i + 1));
                    }
                    self.scopes.push(BraceScope { item });
                }
                "}" => {
                    // A pending header cannot survive its scope closing.
                    self.finalize_pending_at(i.saturating_sub(1));
                    if let Some(scope) = self.scopes.pop() {
                        if let Some(idx) = scope.item {
                            let end = self.code[i].end;
                            self.items[idx].span.1 = end;
                            if let Some((s, _)) = self.items[idx].body {
                                self.items[idx].body = Some((s, i));
                            }
                        }
                    }
                }
                ";" => {
                    // Bodyless item (`fn f();`, `mod m;`): ends here.
                    if let Some(idx) = self.pending.take() {
                        self.items[idx].span.1 = self.code[i].end;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        // Truncated source: close everything at EOF.
        self.finalize_pending_at(self.code.len().saturating_sub(1));
        while let Some(scope) = self.scopes.pop() {
            if let Some(idx) = scope.item {
                self.items[idx].span.1 = self.src.len();
                if let Some((s, _)) = self.items[idx].body {
                    self.items[idx].body = Some((s, self.code.len()));
                }
            }
        }
        self.items
    }

    /// Record a new item starting at keyword token `kw`. Any pending
    /// header is closed first so spans stay disjoint.
    fn start_item(&mut self, kind: ItemKind, name: String, kw: usize) {
        self.finalize_pending_at(kw.saturating_sub(1));
        let impl_target = if kind == ItemKind::Fn { self.enclosing_target() } else { None };
        let tok = &self.code[kw];
        let idx = self.items.len();
        self.items.push(Item {
            kind,
            name,
            span: (tok.start, tok.end),
            body: None,
            keyword_tok: kw,
            impl_target,
        });
        self.pending = Some(idx);
    }

    /// Close a pending header (one that never saw its `{`/`;`) at the end
    /// of token `last`.
    fn finalize_pending_at(&mut self, last: usize) {
        if let Some(idx) = self.pending.take() {
            let end = self
                .code
                .get(last)
                .map(|t| t.end.max(self.items[idx].span.0))
                .unwrap_or(self.items[idx].span.1);
            self.items[idx].span.1 = end.max(self.items[idx].span.1);
        }
    }

    /// The `impl`/`trait` target a new fn belongs to, from the innermost
    /// enclosing impl/trait scope (a `mod` in between does not clear it;
    /// a nested free fn does — fns inside fn bodies are free).
    fn enclosing_target(&self) -> Option<String> {
        for scope in self.scopes.iter().rev() {
            if let Some(idx) = scope.item {
                let it = &self.items[idx];
                match it.kind {
                    ItemKind::Impl | ItemKind::Trait => return Some(it.name.clone()),
                    ItemKind::Fn => return None,
                    _ => {}
                }
            }
        }
        None
    }

    /// Function name at `i` (just past the `fn` keyword). Handles raw
    /// identifiers (`r` `#` `name` at the token level). Returns the name
    /// and the index just past it.
    fn fn_name(&self, i: usize) -> Option<(String, usize)> {
        if self.is_ident(i)
            && self.text(i) == "r"
            && self.text(i + 1) == "#"
            && self.is_ident(i + 2)
        {
            return Some((self.text(i + 2).to_string(), i + 3));
        }
        if self.is_ident(i) && !is_reserved(self.text(i)) {
            return Some((self.text(i).to_string(), i + 1));
        }
        None
    }

    /// Impl target: the last identifier at angle-bracket depth 0 before
    /// the body opens, taken after `for` when a trait impl (`impl Trait
    /// for Type`). `impl Drop for Box<dyn Any>` → `Box`.
    fn impl_target(&self, mut i: usize) -> String {
        let mut depth = 0isize;
        let mut last = String::new();
        let mut last_after_for = String::new();
        let mut seen_for = false;
        while i < self.code.len() {
            let tt = self.text(i);
            match tt {
                "<" => depth += 1,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "<<" => depth += 2,
                "{" | ";" if depth <= 0 => break,
                "where" if depth <= 0 && self.is_ident(i) => break,
                "for" if depth <= 0 && self.is_ident(i) => seen_for = true,
                _ if depth <= 0 && self.is_ident(i) && !is_reserved(tt) => {
                    last = tt.to_string();
                    if seen_for {
                        last_after_for = tt.to_string();
                    }
                }
                _ => {}
            }
            i += 1;
        }
        if seen_for && !last_after_for.is_empty() {
            last_after_for
        } else {
            last
        }
    }
}

/// Keywords that cannot be an item name (so `fn` followed by one is not a
/// named fn — e.g. the `fn` in a fn-pointer type). Public so the property
/// tests can restate the fn-coverage invariant exactly.
pub fn is_reserved(word: &str) -> bool {
    matches!(
        word,
        "fn" | "impl"
            | "trait"
            | "mod"
            | "use"
            | "for"
            | "while"
            | "loop"
            | "if"
            | "else"
            | "match"
            | "let"
            | "mut"
            | "ref"
            | "pub"
            | "where"
            | "struct"
            | "enum"
            | "type"
            | "const"
            | "static"
            | "unsafe"
            | "extern"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "as"
            | "in"
            | "move"
            | "return"
            | "break"
            | "continue"
            | "dyn"
            | "async"
            | "await"
            | "box"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        let tokens = lex(src);
        let code: Vec<Token> = tokens.into_iter().filter(|t| !t.is_comment()).collect();
        parse_items(src, &code)
    }

    #[test]
    fn free_fn_and_method() {
        let src = "fn free() { x(); }\nimpl CellGrid { fn scan(&self) {} }";
        let items = parse(src);
        let fns: Vec<&Item> = items.iter().filter(|i| i.kind == ItemKind::Fn).collect();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "free");
        assert_eq!(fns[0].impl_target, None);
        assert_eq!(fns[1].name, "scan");
        assert_eq!(fns[1].impl_target.as_deref(), Some("CellGrid"));
    }

    #[test]
    fn trait_impl_target_is_the_type_not_the_trait() {
        let items = parse("impl Query for CellGrid { fn count_within(&self) {} }");
        let f = items.iter().find(|i| i.kind == ItemKind::Fn).unwrap();
        assert_eq!(f.impl_target.as_deref(), Some("CellGrid"));
        let im = items.iter().find(|i| i.kind == ItemKind::Impl).unwrap();
        assert_eq!(im.name, "CellGrid");
    }

    #[test]
    fn generic_impl_target_ignores_angle_brackets() {
        let items = parse("impl<T: Clone> Wrapper<Vec<T>> { fn get(&self) {} }");
        let f = items.iter().find(|i| i.kind == ItemKind::Fn).unwrap();
        assert_eq!(f.impl_target.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn impl_in_signature_is_not_an_item() {
        let items = parse("fn f(x: impl Fn() -> u32) -> impl Iterator<Item = u32> { g() }");
        assert_eq!(items.iter().filter(|i| i.kind == ItemKind::Impl).count(), 0);
        assert_eq!(items.iter().filter(|i| i.kind == ItemKind::Fn).count(), 1);
    }

    #[test]
    fn nested_fns_have_parents_and_nested_spans() {
        let src = "mod m { fn outer() { fn inner() {} } }";
        let items = parse(src);
        let m = items.iter().position(|i| i.name == "m").unwrap();
        let outer = items.iter().position(|i| i.name == "outer").unwrap();
        let inner = items.iter().position(|i| i.name == "inner").unwrap();
        assert!(m < outer && outer < inner, "items are recorded parents-first");
        assert!(items[outer].span.0 > items[m].span.0 && items[outer].span.1 < items[m].span.1);
        assert!(
            items[inner].span.0 > items[outer].span.0 && items[inner].span.1 <= items[outer].span.1
        );
        // A fn nested in a fn body is free, not a method.
        assert_eq!(items[inner].impl_target, None);
    }

    #[test]
    fn bodyless_trait_fn_ends_at_semicolon() {
        let items = parse("trait Q { fn clamp_radius(&self, r: f64) -> f64; fn go(&self) {} }");
        let fns: Vec<&Item> = items.iter().filter(|i| i.kind == ItemKind::Fn).collect();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "clamp_radius");
        assert!(fns[0].body.is_none());
        assert_eq!(fns[1].name, "go");
        assert!(fns[1].body.is_some());
        assert!(fns[0].span.1 <= fns[1].span.0, "sibling spans must be disjoint");
    }

    #[test]
    fn use_declarations_are_not_items() {
        let items = parse("use sph_math::{Vec3, REDUCE_CHUNK};\nimpl G { fn scan(&self) {} }");
        let kinds: Vec<ItemKind> = items.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, vec![ItemKind::Impl, ItemKind::Fn]);
        assert_eq!(items[1].impl_target.as_deref(), Some("G"));
    }

    #[test]
    fn raw_identifier_fn_name() {
        let items = parse("fn r#match() {}");
        assert_eq!(items[0].name, "match");
    }

    #[test]
    fn fn_pointer_type_is_not_an_item() {
        let items = parse("fn f(cb: fn(u32) -> u32) {}");
        assert_eq!(items.iter().filter(|i| i.kind == ItemKind::Fn).count(), 1);
        assert_eq!(items[0].name, "f");
    }

    #[test]
    fn truncated_source_closes_at_eof() {
        let src = "impl G { fn scan(&self) { loop {";
        let items = parse(src);
        let f = items.iter().find(|i| i.kind == ItemKind::Fn).unwrap();
        assert_eq!(f.span.1, src.len());
        let im = items.iter().find(|i| i.kind == ItemKind::Impl).unwrap();
        assert_eq!(im.span.1, src.len());
    }
}
