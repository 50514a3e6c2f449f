//! The one walk: every rule's matcher runs in a single pass over each
//! file's code tokens (`FilePass::run`), sharing one scope tracker
//! (loops, closures) and the workspace [`CallGraph`]. Where a rule is
//! scoped by reachability rather than by crate, it asks the graph whether
//! the fn a token sits in is reachable from the kernel-pass seed set (R6)
//! or from a trajectory-feeding `step` (R2, together with its hot-path
//! crate scope).
//!
//! Seed sets:
//!
//! - **Kernel passes** ([`HOT_PATH_SEEDS`]): the five `compute_*` passes
//!   (density / volume elements / IAD / velocity gradients / forces, with
//!   the smoothing-length iteration living inside the density pass), the
//!   `CellGrid` ball-query methods and cell scan, the
//!   CSR batch builder, the symmetric closures of the pair lists (over the
//!   whole system and over a rank's owned ∪ ghost subset — one row per
//!   particle per step), and the Barnes–Hut walk `field_at` (one call per
//!   particle per step, the largest row of a gravity step).
//! - **Trajectory feeders**: the kernel passes plus every `step` method
//!   on the drivers ([`TRAJECTORY_STEP_TYPES`]).

use crate::graph::{CallGraph, ParsedFile, Reach};
use crate::lexer::TokenKind;
use crate::rules::{has_safety_evidence, Diagnostic, Rule};

/// Functions whose bodies (and transitive callees) are the per-particle /
/// per-query hot path: one invocation per particle per step, or the scan
/// kernels those invocations stream through.
pub const HOT_PATH_SEEDS: &[&str] = &[
    "compute_density",
    "compute_volume_elements",
    "compute_iad_matrices",
    "compute_velocity_gradients",
    "compute_forces",
    "neighbors_within",
    "count_within",
    "neighbors_with_dist",
    "clamp_radius",
    "scan_one_image",
    "build_csr_lists",
    "symmetrized",
    "symmetrized_over_ghosts",
    "closure_over_ghosts",
    "field_at",
];

/// Driver types whose `step` methods feed trajectories (R2 seeds,
/// together with the kernel passes).
pub const TRAJECTORY_STEP_TYPES: &[&str] =
    &["Simulation", "DistributedSimulation", "ResilientSimulation"];

/// Iterator adapters that dispatch fixed-`REDUCE_CHUNK` parallel work in
/// the rayon shim. A closure handed to one of these runs once per
/// *chunk*, so chunk-scratch allocation inside it is the sanctioned
/// pattern (PR 6's per-chunk scratch buffers).
const CHUNK_DISPATCH: &[&str] =
    &["par_chunks", "par_chunks_mut", "par_iter", "par_iter_mut", "run_tasks"];

/// Integer element types whose `.sum::<T>()` is exact (no FP order).
const INT_TYPES: &[&str] =
    &["usize", "u8", "u16", "u32", "u64", "u128", "isize", "i8", "i16", "i32", "i64", "i128"];

/// Run every rule over every file. Returns one diagnostic list per file
/// (parallel to `files`), test items filtered out but *not* yet run
/// through suppression matching.
pub(crate) fn check(files: &[ParsedFile], graph: &CallGraph) -> Vec<Vec<Diagnostic>> {
    let hot_seeds = graph.select(|f| HOT_PATH_SEEDS.contains(&f.name.as_str()));
    let traj_seeds = graph.select(|f| {
        HOT_PATH_SEEDS.contains(&f.name.as_str())
            || (f.name == "step"
                && f.impl_target.as_deref().is_some_and(|t| TRAJECTORY_STEP_TYPES.contains(&t)))
    });
    let hot_reach = graph.reachable(&hot_seeds);
    let traj_reach = graph.reachable(&traj_seeds);

    files
        .iter()
        .enumerate()
        .map(|(fi, pf)| {
            let mut pass = FilePass {
                pf,
                fi,
                graph,
                hot_reach: &hot_reach,
                traj_reach: &traj_reach,
                out: Vec::new(),
            };
            pass.run();
            pass.out
        })
        .collect()
}

/// Scope kinds the pass tracks; plain `{}` blocks are transparent.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Loop,
    Closure { chunk: bool },
}

/// How a tracked scope ends: at the `}` matching its opening brace depth,
/// or (expression-bodied closures) when its entry paren depth unwinds.
#[derive(Clone, Copy)]
enum End {
    Brace(usize),
    Expr(usize),
}

struct Scope {
    kind: Kind,
    end: End,
}

struct FilePass<'a> {
    pf: &'a ParsedFile,
    fi: usize,
    graph: &'a CallGraph,
    hot_reach: &'a [Option<Reach>],
    traj_reach: &'a [Option<Reach>],
    out: Vec<Diagnostic>,
}

impl<'a> FilePass<'a> {
    fn text(&self, k: usize) -> &'a str {
        self.pf.code.get(k).map(|t| t.text(&self.pf.src)).unwrap_or("")
    }

    fn is_ident(&self, k: usize) -> bool {
        self.pf.code.get(k).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// Owner fn of code token `k` when it is reachable in `reach` (and
    /// the fn is not test code).
    fn reachable_owner(&self, k: usize, reach: &[Option<Reach>]) -> Option<usize> {
        let owner = self.graph.owner_of(self.fi, k)?;
        if self.graph.fns[owner].in_test || reach.get(owner).copied().flatten().is_none() {
            return None;
        }
        Some(owner)
    }

    /// Where R2 holds at code token `k`, phrased for its message: on a
    /// trajectory-feeding path (with the call chain), or anywhere in a
    /// hot-path crate's library code.
    fn accumulation_site(&self, k: usize) -> Option<String> {
        if let Some(owner) = self.reachable_owner(k, self.traj_reach) {
            let chain = self.graph.chain(self.traj_reach, owner);
            return Some(format!("on a trajectory-feeding path (reachable: {chain})"));
        }
        let ctx = &self.pf.ctx;
        ctx.is_hot_library().then(|| format!("in hot-path crate `{}`", ctx.crate_name))
    }

    /// Record a finding at code token `k`; test code is exempt from all
    /// rules.
    fn emit(&mut self, rule: Rule, k: usize, message: String) {
        if let Some(tok) = self.pf.code.get(k) {
            if !self.pf.in_test(tok.start) {
                self.out.push(Diagnostic { rule, line: tok.line, col: tok.col, message });
            }
        }
    }

    fn run(&mut self) {
        let pf = self.pf;
        let code = &pf.code;
        let r2 = pf.ctx.applies(Rule::RawAccumulation);
        let r3 = pf.ctx.applies(Rule::PanicPath);
        let r4 = pf.ctx.applies(Rule::UndocumentedUnsafe);
        let r6 = pf.ctx.applies(Rule::HotAlloc);
        let r8 = pf.ctx.applies(Rule::EnvDeterminism);

        let mut scopes: Vec<Scope> = Vec::new();
        let mut brace_depth = 0usize;
        let mut paren_depth = 0usize;
        let mut pending_for = false;
        let mut pending_loop = false;
        let mut pending_closure: Option<bool> = None;

        for i in 0..code.len() {
            let tt = self.text(i);
            let is_id = self.is_ident(i);

            // --- scope machinery -------------------------------------
            match tt {
                // A `for` opens a loop only once its `in` shows up: the
                // `for` of `impl Trait for Type {` and of a `for<'a>`
                // bound has none before the next `{`.
                "for" if is_id => pending_for = true,
                "in" if is_id && pending_for => {
                    pending_for = false;
                    pending_loop = true;
                }
                "while" | "loop" if is_id => pending_loop = true,
                "|" | "||" if self.closure_starts_at(i) => {
                    let chunk = self.chain_has_chunk_dispatch(i);
                    let after = if tt == "||" { i + 1 } else { self.closing_pipe(i + 1) };
                    match self.text(after) {
                        "{" | "->" => pending_closure = Some(chunk),
                        _ => scopes.push(Scope {
                            kind: Kind::Closure { chunk },
                            end: End::Expr(paren_depth),
                        }),
                    }
                }
                "{" => {
                    brace_depth += 1;
                    pending_for = false;
                    if let Some(chunk) = pending_closure.take() {
                        scopes.push(Scope {
                            kind: Kind::Closure { chunk },
                            end: End::Brace(brace_depth),
                        });
                        pending_loop = false;
                    } else if pending_loop {
                        scopes.push(Scope { kind: Kind::Loop, end: End::Brace(brace_depth) });
                        pending_loop = false;
                    }
                }
                "}" => {
                    while matches!(scopes.last(), Some(Scope { end: End::Expr(p), .. }) if *p >= paren_depth)
                    {
                        scopes.pop();
                    }
                    if matches!(scopes.last(), Some(Scope { end: End::Brace(b), .. }) if *b == brace_depth)
                    {
                        scopes.pop();
                    }
                    brace_depth = brace_depth.saturating_sub(1);
                }
                "(" | "[" => paren_depth += 1,
                ")" | "]" => {
                    while matches!(scopes.last(), Some(Scope { end: End::Expr(p), .. }) if *p == paren_depth)
                    {
                        scopes.pop();
                    }
                    paren_depth = paren_depth.saturating_sub(1);
                }
                "," => {
                    while matches!(scopes.last(), Some(Scope { end: End::Expr(p), .. }) if *p == paren_depth)
                    {
                        scopes.pop();
                    }
                }
                ";" => {
                    while matches!(scopes.last(), Some(Scope { end: End::Expr(p), .. }) if *p >= paren_depth)
                    {
                        scopes.pop();
                    }
                }
                _ => {}
            }

            let in_loop = scopes.iter().any(|s| s.kind == Kind::Loop);
            let chunk_top =
                matches!(scopes.last(), Some(Scope { kind: Kind::Closure { chunk: true }, .. }));

            // --- R2: raw accumulation --------------------------------
            if r2 {
                // Statement-level `acc += expr;` inside a loop body, where
                // the RHS is not the literal `1` (integer counters are
                // idiomatic and order-independent).
                if is_id
                    && self.text(i + 1) == "+="
                    && in_loop
                    && (i == 0 || matches!(self.text(i - 1), ";" | "{" | "}"))
                    && !(code.get(i + 2).is_some_and(|t| t.kind == TokenKind::NumLit)
                        && self.text(i + 2) == "1"
                        && self.text(i + 3) == ";")
                {
                    if let Some(site) = self.accumulation_site(i) {
                        self.emit(
                            Rule::RawAccumulation,
                            i,
                            format!(
                                "bare `{tt} += …` accumulation {site}; use KahanAccumulator, \
                                 the fixed-chunk ordered-reduce helpers or an explicit integer \
                                 type (or justify why the order is frozen)"
                            ),
                        );
                    }
                }
                // `.sum()` — an exact integer turbofish is exempt.
                if tt == "."
                    && self.text(i + 1) == "sum"
                    && self.is_ident(i + 1)
                    && matches!(self.text(i + 2), "(" | "::")
                    && !self.integer_turbofish(i + 2)
                {
                    if let Some(site) = self.accumulation_site(i + 1) {
                        self.emit(
                            Rule::RawAccumulation,
                            i + 1,
                            format!(
                                "`.sum()` hides the reduction order {site}; use \
                                 KahanAccumulator or spell the integer type \
                                 (`.sum::<usize>()`) if it is exact"
                            ),
                        );
                    }
                }
                // `.fold(…)` whose body accumulates with `+` — min/max
                // folds carry no FP addition and stay exempt.
                if tt == "."
                    && self.text(i + 1) == "fold"
                    && self.is_ident(i + 1)
                    && self.text(i + 2) == "("
                    && self.balanced_args_contain_add(i + 2)
                {
                    if let Some(site) = self.accumulation_site(i + 1) {
                        self.emit(
                            Rule::RawAccumulation,
                            i + 1,
                            format!(
                                "additive `.fold(…)` accumulates in iterator order {site}; use \
                                 KahanAccumulator or the ordered-reduce helpers"
                            ),
                        );
                    }
                }
            }

            // --- R3: panic paths -------------------------------------
            if r3 {
                if tt == "."
                    && matches!(self.text(i + 1), "unwrap" | "expect")
                    && self.text(i + 2) == "("
                {
                    self.emit(
                        Rule::PanicPath,
                        i + 1,
                        format!(
                            "`.{}()` aborts the process on the error path; return a typed Result \
                             (or justify why the invariant is local and checked)",
                            self.text(i + 1)
                        ),
                    );
                }
                if is_id && tt == "panic" && self.text(i + 1) == "!" {
                    self.emit(
                        Rule::PanicPath,
                        i,
                        "`panic!` in a library code path; return a typed Result".to_string(),
                    );
                }
            }

            // --- R4: undocumented unsafe ------------------------------
            // Satisfied by evidence, not only by suppression: a
            // `// SAFETY:` comment adjacent to the `unsafe`, or a
            // `# Safety` doc section on the function it belongs to.
            if r4
                && is_id
                && tt == "unsafe"
                && !has_safety_evidence(&pf.src, &pf.tokens, code[i].line)
            {
                self.emit(
                    Rule::UndocumentedUnsafe,
                    i,
                    "`unsafe` without an adjacent `// SAFETY:` comment stating the \
                     invariants that make it sound"
                        .to_string(),
                );
            }

            // --- R6: hot-path allocation -----------------------------
            if r6 && !chunk_top {
                if let Some((what, at)) = self.alloc_at(i) {
                    if let Some(owner) = self.reachable_owner(at, self.hot_reach) {
                        let chain = self.graph.chain(self.hot_reach, owner);
                        self.emit(
                            Rule::HotAlloc,
                            at,
                            format!(
                                "`{what}` allocates on the kernel-pass hot path \
                                 (reachable: {chain}); hoist it into per-chunk scratch, \
                                 pre-size it with `Vec::with_capacity`, or allocate once \
                                 outside the pass"
                            ),
                        );
                    }
                }
            }

            // --- R8: environment determinism --------------------------
            if r8 {
                let hit = if is_id
                    && tt == "env"
                    && self.text(i + 1) == "::"
                    && matches!(self.text(i + 2), "var" | "var_os" | "vars")
                {
                    Some(format!("env::{}", self.text(i + 2)))
                } else if is_id && matches!(tt, "available_parallelism" | "current_num_threads") {
                    Some(tt.to_string())
                } else {
                    None
                };
                if let Some(what) = hit {
                    let flavor = match self.reachable_owner(i, self.traj_reach) {
                        Some(owner) => format!(
                            " — and it is trajectory-reachable \
                             ({}), so the value can flow into physics state",
                            self.graph.chain(self.traj_reach, owner)
                        ),
                        None => String::new(),
                    };
                    self.emit(
                        Rule::EnvDeterminism,
                        i,
                        format!(
                            "`{what}` reads the process environment in library code{flavor}; \
                             thread-count and env lookups belong in the rayon shim or the \
                             binary's CLI surface"
                        ),
                    );
                }
            }
        }
    }

    /// Does the `|`/`||` at `i` start a closure (vs a binary/pattern or)?
    fn closure_starts_at(&self, i: usize) -> bool {
        if i == 0 {
            return true;
        }
        matches!(self.text(i - 1), "(" | "," | "=" | "move" | "{" | ";" | "=>" | "return" | "[")
    }

    /// Index just past the parameter list's closing `|` (depth-aware for
    /// `|(a, b)|` patterns). Falls back to `i` when unterminated.
    fn closing_pipe(&self, mut k: usize) -> usize {
        let mut depth = 0isize;
        let start = k;
        while k < self.pf.code.len() && k < start + 128 {
            match self.text(k) {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => depth -= 1,
                "|" if depth <= 0 => return k + 1,
                ";" | "{" | "}" => break,
                _ => {}
            }
            k += 1;
        }
        start
    }

    /// Backward receiver-chain scan from the closure/adapter at `i`: does
    /// the chain (`x.par_chunks(n).map(` …) contain a chunk-dispatch
    /// adapter? Balanced groups (earlier call arguments) are skipped.
    fn chain_has_chunk_dispatch(&self, i: usize) -> bool {
        // Step from `|…|` back over `move` and the opening `(` of the
        // adapter call the closure is an argument of.
        let mut k = i;
        if k == 0 {
            return false;
        }
        k -= 1;
        if self.text(k) == "move" {
            if k == 0 {
                return false;
            }
            k -= 1;
        }
        if self.text(k) != "(" {
            return false;
        }
        if k == 0 {
            return false;
        }
        self.chain_back_from(k - 1)
    }

    /// Walk a method/receiver chain backward from token `k`, skipping
    /// balanced `(…)`/`[…]` groups, until the statement boundary.
    fn chain_back_from(&self, mut k: usize) -> bool {
        loop {
            let tt = self.text(k);
            match tt {
                ")" | "]" => match self.back_matching(k) {
                    Some(open) if open > 0 => k = open - 1,
                    _ => return false,
                },
                "." | "::" | "?" => {
                    if k == 0 {
                        return false;
                    }
                    k -= 1;
                }
                _ if self.is_ident(k) && CHUNK_DISPATCH.contains(&tt) => return true,
                _ if self.is_ident(k) => {
                    if k == 0 {
                        return false;
                    }
                    k -= 1;
                }
                _ => return false,
            }
        }
    }

    /// Opening index of the `(`/`[` matching the closer at `k`.
    fn back_matching(&self, close: usize) -> Option<usize> {
        let mut depth = 0isize;
        let mut k = close;
        loop {
            match self.text(k) {
                ")" | "]" => depth += 1,
                "(" | "[" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(k);
                    }
                }
                _ => {}
            }
            if k == 0 {
                return None;
            }
            k -= 1;
        }
    }

    /// Do the balanced arguments of the call whose `(` sits at `open`
    /// contain an additive operator?
    fn balanced_args_contain_add(&self, open: usize) -> bool {
        let mut depth = 0isize;
        for k in open..self.pf.code.len() {
            match self.text(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return false;
                    }
                }
                "+" | "+=" => return true,
                _ => {}
            }
        }
        false
    }

    /// Allocation candidate at token `i`: `(description, anchor token)`.
    /// Pre-sized allocations (`Vec::with_capacity`, `vec![x; n]`) and
    /// `.collect()` calls terminating a chunk-dispatch chain are already
    /// filtered out here.
    fn alloc_at(&self, i: usize) -> Option<(String, usize)> {
        let tt = self.text(i);
        let is_id = self.is_ident(i);
        if is_id && tt == "vec" && self.text(i + 1) == "!" {
            if self.text(i + 2) == "[" && self.repeat_form(i + 2) {
                return None; // `vec![x; n]`: sized upfront, like with_capacity
            }
            return Some(("vec![…]".to_string(), i));
        }
        if is_id && tt == "format" && self.text(i + 1) == "!" {
            return Some(("format!".to_string(), i));
        }
        if is_id && matches!(tt, "Vec" | "VecDeque" | "Box" | "String") && self.text(i + 1) == "::"
        {
            let method = self.text(i + 2);
            let flagged = match tt {
                "Vec" | "VecDeque" | "Box" => matches!(method, "new" | "from"),
                "String" => matches!(method, "new" | "from" | "with_capacity"),
                _ => false,
            };
            if flagged && self.is_ident(i + 2) {
                return Some((format!("{tt}::{method}"), i));
            }
        }
        if tt == "."
            && matches!(self.text(i + 1), "to_vec" | "to_string" | "to_owned" | "collect")
            && self.is_ident(i + 1)
            && matches!(self.text(i + 2), "(" | "::")
        {
            if self.text(i + 1) == "collect" && i > 0 && self.chain_back_from(i - 1) {
                return None; // the ordered-reduce collect over par chunks
            }
            return Some((format!(".{}()", self.text(i + 1)), i + 1));
        }
        None
    }

    /// Is the `vec![…]` bracket group at `open` the repeat form
    /// (`vec![elem; len]` — a `;` at depth 1)?
    fn repeat_form(&self, open: usize) -> bool {
        let mut depth = 0isize;
        let mut k = open;
        while k < self.pf.code.len() {
            match self.text(k) {
                "[" | "(" | "{" => depth += 1,
                "]" | ")" | "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        return false;
                    }
                }
                ";" if depth == 1 => return true,
                _ => {}
            }
            k += 1;
        }
        false
    }

    /// `.sum::<T>()` with an exact integer `T`.
    fn integer_turbofish(&self, at: usize) -> bool {
        self.text(at) == "::"
            && self.text(at + 1) == "<"
            && INT_TYPES.contains(&self.text(at + 2))
            && self.text(at + 3) == ">"
    }
}
