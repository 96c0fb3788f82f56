//! Token-tree-level parser: the structural layer between the lexer and the
//! interprocedural rules.
//!
//! The lexer (`lexer.rs`) already separates code from comments and blanks
//! literal contents; this module tokenizes the code channel and extracts the
//! facts the call-graph rules need: function items (with the impl/trait type
//! they hang off), call sites (free, path, and method calls — turbofish
//! included), worker-closure extents (the chunk bodies passed to
//! `parallel_for`/`for_each_chunk`), atomic operation sites resolved to
//! *fields*, lease acquire/release sites, and blocking-call sites.
//!
//! It is deliberately not a full Rust parser. Known unsoundness is
//! documented in DESIGN.md §15: types are tracked by last-segment name only,
//! receiver types come from `self`/param/`let` hints, and anything the
//! resolver cannot pin down is surfaced as an *unresolved edge* rather than
//! silently dropped.

use crate::lexer::Line;

/// One code token with its 0-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// 0-based line index.
    pub line: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword. Raw identifiers (`r#type`) are stored with
    /// the `r#` stripped and `raw = true` is implied by the original text
    /// having carried the prefix (the rules never need to distinguish).
    Ident,
    /// A numeric literal (kept as one token so `1.0` does not produce a
    /// stray `.` that could be mistaken for a method-call dot).
    Num,
    /// A single punctuation byte (`>` twice for `>>`, so nested generic
    /// closers need no special casing downstream).
    Punct,
}

/// Tokenizes the code channels of lexed lines.
pub fn tokenize(lines: &[Line]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (lineno, line) in lines.iter().enumerate() {
        let b = line.code.as_bytes();
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            if c.is_ascii_whitespace() {
                i += 1;
            } else if c == b'r' && i + 2 < b.len() && b[i + 1] == b'#' && is_ident_start(b[i + 2]) {
                // Raw identifier: `r#type` → Ident("type").
                let start = i + 2;
                let mut j = start;
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                out.push(Tok {
                    kind: TokKind::Ident,
                    text: line.code[start..j].to_string(),
                    line: lineno,
                });
                i = j;
            } else if is_ident_start(c) {
                let mut j = i;
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                out.push(Tok {
                    kind: TokKind::Ident,
                    text: line.code[i..j].to_string(),
                    line: lineno,
                });
                i = j;
            } else if c.is_ascii_digit() {
                // Number; consume `1_000`, `1.5`, `0x1f`, stopping before
                // `..` so ranges keep their punctuation.
                let mut j = i + 1;
                while j < b.len() {
                    let d = b[j];
                    if d.is_ascii_alphanumeric()
                        || d == b'_'
                        || (d == b'.'
                            && b.get(j + 1).is_some_and(|n| n.is_ascii_digit())
                            && b.get(j.wrapping_sub(1)) != Some(&b'.'))
                    {
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push(Tok {
                    kind: TokKind::Num,
                    text: line.code[i..j].to_string(),
                    line: lineno,
                });
                i = j;
            } else if c.is_ascii() {
                out.push(Tok {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line: lineno,
                });
                i += 1;
            } else {
                // Non-ASCII in code position (only possible inside paths or
                // identifiers we do not care about): skip the sequence.
                let len = utf8_len(c);
                i += len;
            }
        }
    }
    out
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}
fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}
fn utf8_len(b: u8) -> usize {
    match b {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// Rust keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "else", "in", "as", "move", "fn",
    "unsafe", "ref", "mut", "pub", "use", "where", "impl", "dyn", "box", "await",
];

/// The atomic RMW/load/store method names that take `Ordering` arguments.
pub const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_min",
    "fetch_max",
    "fetch_update",
];

/// Ops that observe the value (acquire side of a pairing).
pub fn op_reads(op: &str) -> bool {
    op != "store"
}
/// Ops that publish a value (release side of a pairing).
pub fn op_writes(op: &str) -> bool {
    op != "load"
}

/// The parallel-loop entry points whose closure arguments are worker chunk
/// bodies (EL021/EL050 roots).
pub const WORKER_LOOPS: &[&str] = &[
    "parallel_for",
    "parallel_for_with",
    "try_parallel_for",
    "try_parallel_for_with",
    "try_sequential_for_with",
    "try_for_each_chunk",
    "try_for_with",
    "for_each_chunk",
];

/// Blocking calls that must never be reachable from a worker chunk body
/// (EL050): condvar waits, mutex locks, channel receives, sleeps.
pub const BLOCKING_METHODS: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "lock",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "sleep",
];

/// Lease families checked by EL031: `(acquire, release)` method names.
/// `take_scratch`/`put_scratch` stay under the older per-function EL030 and
/// are deliberately absent here.
pub const LEASE_FAMILIES: &[(&str, &str)] = &[
    ("take_dense_frontier", "recycle_dense_frontier"),
    ("take_f64_buffer", "recycle_f64_buffer"),
    ("take_u32_buffer", "recycle_u32_buffer"),
    ("take_u64_buffer", "recycle_u64_buffer"),
];

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment, turbofish stripped).
    pub callee: String,
    /// Receiver type hint: `Some("Graph")` for `g.foo()` when `g: &Graph`
    /// is in scope, for `self.foo()` inside `impl Graph`, and for
    /// `Graph::foo()` path calls. `None` when no hint exists.
    pub recv_type: Option<String>,
    /// True for `x.m()` / `Type::m()`; false for free `m()`.
    pub is_method: bool,
    /// True when the method receiver is a chain (`self.field.m()`,
    /// `x[i].m()`, `a().m()`): the receiver's type is some *member's* type,
    /// so the caller's own impl type must not be assumed for it.
    pub chained_recv: bool,
    /// 0-based line of the callee token.
    pub line: usize,
    /// Token index of the callee (used for worker-closure membership).
    pub tok: usize,
    /// The call's value syntactically escapes to the caller (`return` or
    /// tail expression) — EL031 uses this to track lease handoffs one
    /// level up the graph.
    pub escapes: bool,
}

/// An atomic operation site resolved to a field key.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// The field key: last identifier of the receiver chain
    /// (`self.claimed[i].compare_exchange…` → `claimed`, `FLAG.load` →
    /// `FLAG`). Orderings passed to non-atomic helper calls get the helper
    /// name prefixed with `fn:`; orderings outside any call get `*`.
    pub field: String,
    /// The op name (`load`, `store`, `fetch_or`, …) or the helper callee.
    pub op: String,
    /// `(ordering name, 0-based line)` pairs seen in this call's argument
    /// list, innermost-call-first claimed so a wrapper call never
    /// re-attributes an inner op's orderings.
    pub orderings: Vec<(&'static str, usize)>,
    /// 0-based line of the op token.
    pub line: usize,
}

/// A lease acquire or release site.
#[derive(Debug, Clone)]
pub struct LeaseSite {
    /// Index into [`LEASE_FAMILIES`].
    pub family: usize,
    pub is_acquire: bool,
    /// For acquires: the lease value syntactically escapes to the caller
    /// (tail expression or `return`).
    pub escapes: bool,
    pub line: usize,
}

/// A blocking call site (EL050 candidates; only flagged when reachable
/// from a worker closure).
#[derive(Debug, Clone)]
pub struct BlockingSite {
    pub what: String,
    pub line: usize,
    pub tok: usize,
}

/// One parsed function.
#[derive(Debug)]
pub struct FnSyn {
    pub name: String,
    /// Enclosing `impl Type` / `trait Type` name, if any.
    pub self_type: Option<String>,
    /// 0-based declaration line.
    pub decl_line: usize,
    /// 0-based inclusive body line span.
    pub line_span: (usize, usize),
    /// Token index range of the body (inclusive braces).
    pub tok_span: (usize, usize),
    pub calls: Vec<CallSite>,
    pub atomic_sites: Vec<AtomicSite>,
    pub lease_sites: Vec<LeaseSite>,
    pub blocking_sites: Vec<BlockingSite>,
    /// Token ranges of worker-closure bodies (`parallel_for`-family closure
    /// arguments) inside this function.
    pub worker_regions: Vec<(usize, usize)>,
}

impl FnSyn {
    /// True when token index `t` falls inside a worker-closure body.
    pub fn in_worker(&self, t: usize) -> bool {
        self.worker_regions.iter().any(|&(a, b)| a <= t && t <= b)
    }
    /// Line spans of the worker-closure bodies.
    pub fn worker_line_spans(&self, toks: &[Tok]) -> Vec<(usize, usize)> {
        self.worker_regions
            .iter()
            .map(|&(a, b)| (toks[a].line, toks[b].line))
            .collect()
    }
}

/// Parsed facts for one file.
pub struct FileSyntax {
    pub toks: Vec<Tok>,
    pub fns: Vec<FnSyn>,
}

/// Parses the token stream of one file into functions and their facts.
pub fn parse_file(lines: &[Line]) -> FileSyntax {
    let toks = tokenize(lines);
    let fns = parse_items(&toks);
    // Nested fn items own their tokens: the enclosing function skips them
    // so a nested body's facts are not double-attributed.
    let spans: Vec<(usize, usize)> = fns.iter().map(|f| f.tok_span).collect();
    let mut syn = FileSyntax { toks, fns };
    for f in &mut syn.fns {
        let nested: Vec<(usize, usize)> = spans
            .iter()
            .copied()
            .filter(|&(s, e)| s > f.tok_span.0 && e <= f.tok_span.1)
            .collect();
        extract_facts(&syn.toks, f, &nested);
    }
    syn
}

/// Context while walking the item tree: the impl/trait type names by brace
/// depth, so nested items resolve their `self` type.
struct ImplFrame {
    type_name: String,
    /// Brace depth *inside* the impl body.
    body_depth: i32,
}

/// First pass: find `impl`/`trait` frames and `fn` items with body extents.
fn parse_items(toks: &[Tok]) -> Vec<FnSyn> {
    let mut fns: Vec<FnSyn> = Vec::new();
    let mut impls: Vec<ImplFrame> = Vec::new();
    struct OpenFn {
        name: String,
        self_type: Option<String>,
        decl_line: usize,
        start_tok: usize,
        body_depth: i32,
    }
    let mut open_fns: Vec<OpenFn> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "impl") | (TokKind::Ident, "trait") => {
                if let Some((name, brace_at)) = impl_header(toks, i) {
                    // Walk forward to the body brace, counting nothing in
                    // between (headers contain no braces).
                    impls.push(ImplFrame {
                        type_name: name,
                        body_depth: depth + 1,
                    });
                    // Jump to the `{`; the `{` itself is processed below.
                    i = brace_at;
                    continue;
                }
                i += 1;
            }
            (TokKind::Ident, "fn") => {
                // `fn name … {` or `fn name …;` (trait signature).
                if let Some(name_tok) = toks.get(i + 1) {
                    if name_tok.kind == TokKind::Ident {
                        // Scan to the body `{` or terminating `;` at this
                        // depth, skipping nested parens/brackets/generics.
                        if let Some(body_at) = fn_body_open(toks, i + 2) {
                            open_fns.push(OpenFn {
                                name: name_tok.text.clone(),
                                self_type: impls.last().map(|f| f.type_name.clone()),
                                decl_line: t.line,
                                start_tok: body_at,
                                body_depth: depth + 1,
                            });
                            i = body_at;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            (TokKind::Punct, "{") => {
                depth += 1;
                i += 1;
            }
            (TokKind::Punct, "}") => {
                if let Some(open) = open_fns.last() {
                    if depth == open.body_depth {
                        let open = open_fns.pop().expect("non-empty");
                        fns.push(FnSyn {
                            name: open.name,
                            self_type: open.self_type,
                            decl_line: open.decl_line,
                            line_span: (toks[open.start_tok].line, t.line),
                            tok_span: (open.start_tok, i),
                            calls: Vec::new(),
                            atomic_sites: Vec::new(),
                            lease_sites: Vec::new(),
                            blocking_sites: Vec::new(),
                            worker_regions: Vec::new(),
                        });
                    }
                }
                if let Some(f) = impls.last() {
                    if depth == f.body_depth {
                        impls.pop();
                    }
                }
                depth -= 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    fns.sort_by_key(|f| f.tok_span.0);
    fns
}

/// Parses an `impl`/`trait` header starting at token `at` (the keyword).
/// Returns `(type_name, index_of_body_brace)`. For `impl Trait for Type`
/// the *type* wins; for `trait Name` the trait name is the frame (so trait
/// default bodies resolve `self` to the trait).
fn impl_header(toks: &[Tok], at: usize) -> Option<(String, usize)> {
    let mut i = at + 1;
    // Skip leading generics `<…>` (types only in headers, so `<`/`>`
    // balance exactly; `>>` arrives as two `>` tokens).
    let mut gdepth = 0i32;
    let mut first_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut seen_for = false;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => gdepth += 1,
            (TokKind::Punct, ">") => gdepth -= 1,
            (TokKind::Punct, "{") if gdepth == 0 => {
                let name = after_for.or(first_ident)?;
                return Some((name, i));
            }
            (TokKind::Punct, ";") if gdepth == 0 => return None, // `impl Trait for T;`? bail
            (TokKind::Ident, "for") if gdepth == 0 => seen_for = true,
            (TokKind::Ident, "where") if gdepth == 0 => {
                // `where` clauses may contain `Fn(…) -> …` bounds; the type
                // name is already decided by now.
                let name = after_for.clone().or(first_ident.clone())?;
                // Find the body brace at gdepth 0.
                let mut j = i;
                let mut gd = 0i32;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "<" => gd += 1,
                        ">" => gd -= 1,
                        "{" if gd <= 0 => return Some((name, j)),
                        ";" if gd <= 0 => return None,
                        _ => {}
                    }
                    j += 1;
                }
                return None;
            }
            (TokKind::Ident, w)
                if gdepth == 0 && !matches!(w, "dyn" | "mut" | "const" | "unsafe") =>
            {
                if seen_for {
                    if after_for.is_none() {
                        after_for = Some(w.to_string());
                    }
                } else {
                    // Later path segments (`mod::Type`) override so the
                    // last segment before `for`/`{` is the name.
                    first_ident = Some(w.to_string());
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// From the token after a `fn name`, find the opening `{` of its body.
/// Returns `None` for bodiless signatures (`fn f(…);`).
fn fn_body_open(toks: &[Tok], mut i: usize) -> Option<usize> {
    let mut paren = 0i32;
    let mut gdepth = 0i32;
    let mut bracket = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" if paren == 0 && bracket == 0 => gdepth += 1,
                ">" if paren == 0 && bracket == 0 => {
                    // `->` arrives as `-`,`>`: don't let return arrows close
                    // generics.
                    if i > 0 && toks[i - 1].text == "-" {
                        // part of `->`
                    } else if gdepth > 0 {
                        gdepth -= 1;
                    }
                }
                "{" if paren == 0 && bracket == 0 => return Some(i),
                ";" if paren == 0 && bracket == 0 => return None,
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Second pass over one function body: type hints, call sites, worker
/// regions, atomic sites, lease sites, blocking sites. `nested` holds the
/// token spans of fn items nested inside this body, which are skipped.
fn extract_facts(toks: &[Tok], f: &mut FnSyn, nested: &[(usize, usize)]) {
    let (body_start, body_end) = f.tok_span;
    // --- local type hints -------------------------------------------------
    let mut hints: Vec<(String, String)> = Vec::new(); // (var, type)
    if let Some(t) = &f.self_type {
        hints.push(("self".to_string(), t.clone()));
    }
    collect_param_hints(toks, f, &mut hints);
    collect_let_hints(toks, body_start, body_end, &mut hints);
    let hint_for = |var: &str| -> Option<String> {
        hints
            .iter()
            .rev()
            .find(|(v, _)| v == var)
            .map(|(_, t)| t.clone())
    };

    // --- scan body tokens: raw call records first -------------------------
    struct RawCall {
        tok: usize,
        open: usize,
        close: usize,
        callee: String,
        is_method_dot: bool,
        is_path: bool,
    }
    let mut raw: Vec<RawCall> = Vec::new();
    let mut i = body_start;
    while i <= body_end {
        if let Some(&(_, e)) = nested.iter().find(|&&(s, _)| s == i) {
            i = e + 1; // nested fn body: its own FnSyn owns these facts
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            i += 1;
            continue;
        }
        // `fn helper(…)` / `struct S(…)` declarations nested in a body are
        // items, not calls.
        if i > 0
            && toks[i - 1].kind == TokKind::Ident
            && matches!(
                toks[i - 1].text.as_str(),
                "fn" | "struct" | "enum" | "union"
            )
        {
            i += 1;
            continue;
        }
        // Macro invocation `name ! (…)` — not a call edge; skip the bang.
        if next_is(toks, i + 1, "!") {
            i += 2;
            continue;
        }
        let Some(open) = call_open_paren(toks, i) else {
            i += 1;
            continue;
        };
        let prev = i.checked_sub(1).map(|p| &toks[p]);
        raw.push(RawCall {
            tok: i,
            open,
            close: match_paren(toks, open, body_end),
            callee: t.text.clone(),
            is_method_dot: prev.is_some_and(|p| p.text == "." && p.kind == TokKind::Punct),
            is_path: prev.is_some_and(|p| p.text == ":")
                && i >= 2
                && toks[i - 2].text == ":"
                && i >= 3
                && toks[i - 3].kind == TokKind::Ident,
        });
        i += 1;
    }

    // --- atomic sites: claim orderings innermost-call-first ---------------
    // Each `Ordering::X` token belongs to exactly one call — the innermost
    // argument list containing it. Sorting by opening paren descending
    // visits inner calls before their wrappers, so `Some(x.load(Acquire))`
    // attributes Acquire to `x.load`, never to `fn:Some`.
    let mut claimed = vec![false; toks.len()];
    let mut order: Vec<usize> = (0..raw.len()).collect();
    order.sort_by_key(|&k| std::cmp::Reverse(raw[k].open));
    let mut sites: Vec<AtomicSite> = Vec::new();
    for k in order {
        let c = &raw[k];
        let ords = claim_orderings(toks, c.open, c.close, &mut claimed);
        if ords.is_empty() {
            continue;
        }
        let is_atomic_op = ATOMIC_OPS.contains(&c.callee.as_str()) && c.is_method_dot;
        sites.push(AtomicSite {
            field: if is_atomic_op {
                field_key(toks, c.tok - 1)
            } else {
                format!("fn:{}", c.callee)
            },
            op: c.callee.clone(),
            orderings: ords,
            line: toks[c.tok].line,
        });
    }
    sites.sort_by_key(|s| s.line);
    f.atomic_sites = sites;

    // --- the rest of the facts --------------------------------------------
    for c in &raw {
        let t = &toks[c.tok];
        let chained_recv = c.is_method_dot && {
            let dot = c.tok - 1;
            dot == 0
                || toks[dot - 1].kind != TokKind::Ident
                || (dot >= 2 && toks[dot - 2].text == ".")
        };
        let (recv_type, is_method) = if c.is_method_dot {
            (method_recv_hint(toks, c.tok - 1, &hint_for), true)
        } else if c.is_path {
            let seg = &toks[c.tok - 3].text;
            let is_type = seg.chars().next().is_some_and(|c| c.is_ascii_uppercase());
            (is_type.then(|| seg.clone()), is_type)
        } else {
            (None, false)
        };
        if let Some(fam) = LEASE_FAMILIES.iter().position(|(a, _)| *a == c.callee) {
            f.lease_sites.push(LeaseSite {
                family: fam,
                is_acquire: true,
                escapes: escapes_to_caller(toks, c.tok, c.close, (body_start, body_end)),
                line: t.line,
            });
        }
        if let Some(fam) = LEASE_FAMILIES.iter().position(|(_, r)| *r == c.callee) {
            f.lease_sites.push(LeaseSite {
                family: fam,
                is_acquire: false,
                escapes: false,
                line: t.line,
            });
        }
        if BLOCKING_METHODS.contains(&c.callee.as_str()) {
            // `thread::sleep` is a path call; the rest are method calls.
            if c.is_method_dot || (c.callee == "sleep" && c.is_path) {
                f.blocking_sites.push(BlockingSite {
                    what: if c.is_path {
                        format!("{}::{}", toks[c.tok - 3].text, c.callee)
                    } else {
                        c.callee.clone()
                    },
                    line: t.line,
                    tok: c.tok,
                });
            }
        }
        if WORKER_LOOPS.contains(&c.callee.as_str()) {
            for (a, b) in closure_bodies(toks, c.open, c.close) {
                f.worker_regions.push((a, b));
            }
        }
        f.calls.push(CallSite {
            callee: c.callee.clone(),
            recv_type,
            is_method,
            chained_recv,
            line: t.line,
            tok: c.tok,
            escapes: escapes_to_caller(toks, c.tok, c.close, (body_start, body_end)),
        });
    }
}

/// If the ident at `i` heads a call, returns the index of its `(` —
/// handling an interposed turbofish (`ident::<…>(`).
fn call_open_paren(toks: &[Tok], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if next_is(toks, j, ":") && next_is(toks, j + 1, ":") && next_is(toks, j + 2, "<") {
        // Turbofish: balance `<`/`>` (each `>` is its own token, so `>>`
        // closes two levels naturally).
        let mut depth = 0i32;
        j += 2;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                ";" | "{" => return None,
                _ => {}
            }
            j += 1;
        }
    }
    (next_is(toks, j, "(")).then_some(j)
}

fn next_is(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

/// Index of the `)` matching the `(` at `open` (clamped to `end`).
fn match_paren(toks: &[Tok], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i <= end.min(toks.len() - 1) {
        match toks[i].text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end.min(toks.len() - 1)
}

/// Unclaimed `Ordering::X` names between tokens `open..=close`, claiming
/// them so outer wrapper calls cannot re-attribute.
fn claim_orderings(
    toks: &[Tok],
    open: usize,
    close: usize,
    claimed: &mut [bool],
) -> Vec<(&'static str, usize)> {
    use crate::config::ATOMIC_ORDERINGS;
    let mut out = Vec::new();
    let mut i = open;
    while i + 3 <= close {
        if toks[i].text == "Ordering"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && !claimed[i]
        {
            if let Some(name) = ATOMIC_ORDERINGS.iter().find(|n| toks[i + 3].text == **n) {
                out.push((*name, toks[i + 3].line));
                claimed[i] = true;
            }
            i += 4;
        } else {
            i += 1;
        }
    }
    out
}

/// The field key of an atomic receiver: the last identifier of the dotted
/// chain before the op, skipping index brackets (`self.claimed[i].op` →
/// `claimed`). Falls back to `*` when the receiver is not a name.
fn field_key(toks: &[Tok], dot: usize) -> String {
    // `dot` is the index of the `.` before the op name.
    let mut i = dot;
    // Skip a trailing `[…]` index.
    loop {
        if i == 0 {
            return "*".to_string();
        }
        i -= 1;
        let t = &toks[i];
        if t.text == "]" {
            // Walk back to the matching `[`.
            let mut depth = 0i32;
            while i > 0 {
                match toks[i].text.as_str() {
                    "]" => depth += 1,
                    "[" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i -= 1;
            }
            continue;
        }
        if t.kind == TokKind::Ident {
            return t.text.clone();
        }
        if t.kind == TokKind::Num {
            // Tuple-field receiver (`self.0.load`, `cursors[w].0.fetch_add`):
            // skip the index and its dot, keep walking to the named part.
            if i > 0 && toks[i - 1].text == "." {
                i -= 1;
                continue;
            }
            return "*".to_string();
        }
        if t.text == ")" {
            // Receiver is a call result (`self.slot().load(…)`): use the
            // called method's name as the key.
            let mut depth = 0i32;
            while i > 0 {
                match toks[i].text.as_str() {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            i -= 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i -= 1;
            }
            if toks[i].kind == TokKind::Ident {
                return toks[i].text.clone();
            }
            return "*".to_string();
        }
        return "*".to_string();
    }
}

/// Receiver-type hint for a method call whose `.` sits at `dot`.
fn method_recv_hint(
    toks: &[Tok],
    dot: usize,
    hint_for: &dyn Fn(&str) -> Option<String>,
) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let prev = &toks[dot - 1];
    if prev.kind != TokKind::Ident {
        return None; // chained call / index result: unknown.
    }
    // Single-name receiver (`x.m()`): hint from scope. Dotted chains
    // (`self.field.m()`) have an ident before the previous `.` — we only
    // resolve the single-step case, everything deeper is name-resolved.
    if dot >= 2 && toks[dot - 2].text == "." {
        return None;
    }
    hint_for(&prev.text)
}

/// Parameter type hints: `name: … Type` pairs from the fn signature.
fn collect_param_hints(toks: &[Tok], f: &FnSyn, hints: &mut Vec<(String, String)>) {
    // Walk back from the body brace to the `fn` keyword, then forward to
    // the param list — going backward alone could mistake a tuple return
    // type's parens for the parameter parens.
    let mut k = f.tok_span.0;
    while k > 0 {
        k -= 1;
        if toks[k].kind == TokKind::Ident && toks[k].text == "fn" {
            break;
        }
    }
    // First `(` after the fn name (skipping generics) opens the params.
    let mut open = None;
    let mut j = k + 1;
    let mut gdepth = 0i32;
    while j < f.tok_span.0 {
        match toks[j].text.as_str() {
            "<" => gdepth += 1,
            ">" if toks[j - 1].text != "-" => gdepth -= 1,
            "(" if gdepth == 0 => {
                open = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let Some(open) = open else { return };
    let close = match_paren(toks, open, f.tok_span.0);
    // Split params on top-level commas.
    let mut start = open + 1;
    let mut pdepth = 0i32;
    let mut gdepth = 0i32;
    for j in open + 1..=close {
        let txt = toks[j].text.as_str();
        match txt {
            "(" | "[" => pdepth += 1,
            ")" | "]" if j != close => pdepth -= 1,
            "<" => gdepth += 1,
            ">" if j > 0 && toks[j - 1].text != "-" => gdepth -= 1,
            _ => {}
        }
        if (txt == "," && pdepth == 0 && gdepth <= 0) || j == close {
            param_hint(&toks[start..j], hints);
            start = j + 1;
        }
    }
}

/// One parameter: `name : Type…` → hint (name, principal type ident).
fn param_hint(param: &[Tok], hints: &mut Vec<(String, String)>) {
    let colon = param.iter().position(|t| t.text == ":");
    let Some(c) = colon else { return };
    if c == 0 || param[c - 1].kind != TokKind::Ident {
        return;
    }
    let name = param[c - 1].text.clone();
    if let Some(ty) = principal_type_ident(&param[c + 1..]) {
        hints.push((name, ty));
    }
}

/// The principal type name of a type token sequence: the first path-segment
/// identifier, unwrapping references and the `Box`/`Arc`/`Rc` smart
/// pointers (`&mut Arc<Graph>` → `Graph`). `dyn Trait` and `impl Trait`
/// yield the trait name, which the resolver treats as dispatch-opaque.
fn principal_type_ident(ty: &[Tok]) -> Option<String> {
    let mut i = 0;
    let mut dyn_seen = false;
    while i < ty.len() {
        let t = &ty[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "&") | (TokKind::Punct, "'") => i += 1,
            (TokKind::Ident, "mut") | (TokKind::Ident, "const") => i += 1,
            (TokKind::Ident, "dyn") | (TokKind::Ident, "impl") => {
                dyn_seen = true;
                i += 1;
            }
            (TokKind::Ident, "Box") | (TokKind::Ident, "Arc") | (TokKind::Ident, "Rc") => {
                // Unwrap one generic level: `Box<Inner…>`.
                if ty.get(i + 1).is_some_and(|t| t.text == "<") {
                    i += 2;
                } else {
                    return Some(t.text.clone());
                }
            }
            (TokKind::Ident, name) => {
                // Lifetime idents directly after `'` were skipped with the
                // quote; path prefixes (`module::Type`) keep the last
                // segment.
                let mut last = name.to_string();
                let mut j = i + 1;
                while j + 1 < ty.len() && ty[j].text == ":" && ty[j + 1].text == ":" {
                    if let Some(nt) = ty.get(j + 2) {
                        if nt.kind == TokKind::Ident {
                            last = nt.text.clone();
                            j += 3;
                            continue;
                        }
                    }
                    break;
                }
                return Some(if dyn_seen {
                    format!("dyn {last}")
                } else {
                    last
                });
            }
            _ => return None,
        }
    }
    None
}

/// `let`-binding type hints inside a body: `let [mut] name: Type = …` and
/// the `let name = Type::new(…)` constructor idiom.
fn collect_let_hints(toks: &[Tok], start: usize, end: usize, hints: &mut Vec<(String, String)>) {
    let mut i = start;
    while i + 2 <= end {
        if toks[i].text == "let" && toks[i].kind == TokKind::Ident {
            let mut j = i + 1;
            if next_is(toks, j, "mut") || toks.get(j).is_some_and(|t| t.text == "mut") {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident) {
                let name = toks[j].text.clone();
                if next_is(toks, j + 1, ":") && !next_is(toks, j + 2, ":") {
                    // Annotated: type tokens run to `=` or `;` at depth 0.
                    let mut k = j + 2;
                    let mut ty = Vec::new();
                    let mut gd = 0i32;
                    while k <= end {
                        match toks[k].text.as_str() {
                            "<" => gd += 1,
                            ">" => gd -= 1,
                            "=" | ";" if gd <= 0 => break,
                            _ => {}
                        }
                        ty.push(toks[k].clone());
                        k += 1;
                    }
                    if let Some(t) = principal_type_ident(&ty) {
                        hints.push((name, t));
                    }
                } else if next_is(toks, j + 1, "=")
                    && toks.get(j + 2).is_some_and(|t| {
                        t.kind == TokKind::Ident
                            && t.text
                                .chars()
                                .next()
                                .is_some_and(|c| c.is_ascii_uppercase())
                    })
                    && next_is(toks, j + 3, ":")
                    && next_is(toks, j + 4, ":")
                {
                    // `let x = Type::ctor(…)`.
                    hints.push((name, toks[j + 2].text.clone()));
                }
            }
        }
        i += 1;
    }
}

/// Closure bodies among a call's arguments: for each `|params| body`,
/// returns the token range of the body (brace-matched block or the
/// expression up to the next top-level `,`/`)`).
fn closure_bodies(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = open + 1;
    let mut depth = 0i32; // nesting of (), [], {} inside the arg list
    while i < close {
        let txt = toks[i].text.as_str();
        match txt {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "|" if depth == 0 => {
                // Closure params until the matching `|` (params contain no
                // `|` except closing; `||` empty-params arrives as two).
                let mut j = i + 1;
                while j < close && toks[j].text != "|" {
                    j += 1;
                }
                // Body: block or expression.
                let body_start = j + 1;
                if body_start >= close {
                    break;
                }
                let body_end = if toks[body_start].text == "{" {
                    let mut d = 0i32;
                    let mut k = body_start;
                    while k <= close {
                        match toks[k].text.as_str() {
                            "{" => d += 1,
                            "}" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k.min(close)
                } else {
                    // Expression closure: to the `,`/`)` at arg-list level.
                    let mut d = 0i32;
                    let mut k = body_start;
                    while k < close {
                        match toks[k].text.as_str() {
                            "(" | "[" | "{" => d += 1,
                            ")" | "]" | "}" => d -= 1,
                            "," if d == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    k - 1
                };
                out.push((body_start, body_end));
                i = body_end;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Does the value produced by the call at `callee_tok` syntactically escape
/// to the caller? True when the statement carrying the call starts with
/// `return`, when the call's expression is the tail of the function body
/// (no `;` between its end and the body's closing brace), or when it is
/// bound by a `let` whose name later feeds a `return` or the body's tail
/// expression — the `let out = take_…(); …; (out, n)` shape.
fn escapes_to_caller(toks: &[Tok], callee_tok: usize, close: usize, body: (usize, usize)) -> bool {
    let (body_start, body_end) = body;
    // Backward to the statement boundary: a `return` prefix escapes
    // directly; remember where the statement starts for the binding check.
    let mut stmt_start = body_start + 1;
    let mut i = callee_tok;
    while i > body_start {
        i -= 1;
        match toks[i].text.as_str() {
            ";" | "{" | "}" => {
                stmt_start = i + 1;
                break;
            }
            "return" => return true,
            _ => {}
        }
    }
    // Forward from the call's close paren: skip chained `.method(…)` /
    // `?` / `)` and see whether we reach the body's final brace without a
    // semicolon or another statement.
    let mut i = close + 1;
    while i <= body_end {
        let txt = toks[i].text.as_str();
        match txt {
            ";" => break,
            "." => {
                // chained method: skip `ident ( … )`.
                i += 1;
                if toks.get(i).is_some_and(|t| t.kind == TokKind::Ident) {
                    i += 1;
                    if next_is(toks, i, "(") {
                        i = match_paren(toks, i, body_end) + 1;
                    }
                } else {
                    i += 1;
                }
            }
            "?" | ")" => i += 1,
            "}" if i == body_end => return true,
            _ => break,
        }
    }
    // Bound-then-returned: collect the names a `let [mut] <pat> =` binding
    // introduces (single idents and destructuring tuples alike; a `:` cuts
    // off the type annotation) …
    if toks[stmt_start].text != "let" {
        return false;
    }
    let mut names: Vec<&str> = Vec::new();
    let mut depth = 0i32;
    let mut j = stmt_start + 1;
    while j < callee_tok {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ":" | "=" if depth == 0 => break,
            "mut" => {}
            _ if t.kind == TokKind::Ident => names.push(t.text.as_str()),
            _ => {}
        }
        j += 1;
    }
    if names.is_empty() {
        return false;
    }
    // A bound name followed by `.` yields a derived value (`v.len()`), not
    // the lease itself — only a bare mention moves ownership out.
    let named = |a: usize, b: usize| {
        (a..b).any(|p| {
            toks[p].kind == TokKind::Ident
                && names.contains(&toks[p].text.as_str())
                && toks.get(p + 1).is_none_or(|t| t.text != ".")
        })
    };
    // … then look for one of them in the tail expression (everything after
    // the last statement-level `;`) …
    let mut depth = 0i32;
    let mut tail_start = body_start + 1;
    for (k, tok) in toks.iter().enumerate().take(body_end).skip(body_start + 1) {
        match tok.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => tail_start = k + 1,
            _ => {}
        }
    }
    if tail_start > close && named(tail_start, body_end) {
        return true;
    }
    // … or in a later `return …;` statement.
    let mut k = close;
    while k < body_end {
        if toks[k].text == "return" {
            let mut e = k + 1;
            while e < body_end && toks[e].text != ";" {
                e += 1;
            }
            if named(k + 1, e) {
                return true;
            }
        }
        k += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::split_lines;

    fn parse(src: &str) -> FileSyntax {
        parse_file(&split_lines(src))
    }

    fn fn_named<'a>(syn: &'a FileSyntax, name: &str) -> &'a FnSyn {
        syn.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn {name} not parsed"))
    }

    #[test]
    fn raw_identifiers_tokenize_and_call() {
        // Satellite regression: `r#type` is one identifier, both as a fn
        // name and at a call site; a raw-string `r#"…"#` must not confuse.
        let syn = parse(
            "fn r#type(x: u32) -> u32 { x }\nfn caller() { let s = r#\"raw\"#; r#type(1); }\n",
        );
        assert!(syn.fns.iter().any(|f| f.name == "type"));
        let caller = fn_named(&syn, "caller");
        assert!(caller.calls.iter().any(|c| c.callee == "type"));
    }

    #[test]
    fn nested_generic_closers_do_not_derail_bodies() {
        // Satellite regression: `Vec<Vec<u32>>` — the `>>` closes two
        // generic levels; both fns and the call edge must survive.
        let src = "fn deep(v: Vec<Vec<u32>>) -> Vec<Vec<u32>> { inner(v) }\nfn inner(v: Vec<Vec<u32>>) -> Vec<Vec<u32>> { v }\n";
        let syn = parse(src);
        assert_eq!(syn.fns.len(), 2);
        assert!(fn_named(&syn, "deep")
            .calls
            .iter()
            .any(|c| c.callee == "inner"));
    }

    #[test]
    fn turbofish_call_edges_are_extracted() {
        // Satellite regression: `collect::<Vec<_>>()` and
        // `helper::<Vec<Vec<u32>>>(x)` are calls to `collect` / `helper`.
        let src = "fn f(it: I) { let v = it.collect::<Vec<_>>(); helper::<Vec<Vec<u32>>>(v); }\n";
        let syn = parse(src);
        let f = fn_named(&syn, "f");
        assert!(f.calls.iter().any(|c| c.callee == "collect" && c.is_method));
        assert!(f.calls.iter().any(|c| c.callee == "helper" && !c.is_method));
    }

    #[test]
    fn method_receiver_hints_resolve_from_self_params_and_lets() {
        let src = "impl Graph {\n  fn go(&self, f: &SparseFrontier) {\n    self.probe();\n    f.walk();\n    let d: DenseFrontier = make();\n    d.scan();\n    let q = Queue::new();\n    q.pop();\n  }\n}\n";
        let syn = parse(src);
        let f = fn_named(&syn, "go");
        let hint = |name: &str| {
            f.calls
                .iter()
                .find(|c| c.callee == name)
                .unwrap()
                .recv_type
                .clone()
        };
        assert_eq!(hint("probe").as_deref(), Some("Graph"));
        assert_eq!(hint("walk").as_deref(), Some("SparseFrontier"));
        assert_eq!(hint("scan").as_deref(), Some("DenseFrontier"));
        assert_eq!(hint("pop").as_deref(), Some("Queue"));
    }

    #[test]
    fn impl_trait_for_type_resolves_to_the_type() {
        let syn = parse("impl Sink for Counters {\n  fn push_record(&self) { self.bump(); }\n}\n");
        let f = fn_named(&syn, "push_record");
        assert_eq!(f.self_type.as_deref(), Some("Counters"));
    }

    #[test]
    fn atomic_sites_resolve_to_fields() {
        let src = "impl Slot {\n  fn claim(&self, i: usize) -> bool {\n    self.in_use[i]\n      .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)\n      .is_ok()\n  }\n  fn release(&self) { self.in_use[0].store(false, Ordering::Release); FLAG.load(Ordering::Acquire); }\n}\n";
        let syn = parse(src);
        let claim = fn_named(&syn, "claim");
        assert_eq!(claim.atomic_sites.len(), 1);
        let s = &claim.atomic_sites[0];
        assert_eq!(s.field, "in_use");
        assert_eq!(s.op, "compare_exchange");
        let names: Vec<_> = s.orderings.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["Acquire", "Relaxed"]);
        let release = fn_named(&syn, "release");
        let fields: Vec<_> = release
            .atomic_sites
            .iter()
            .map(|s| s.field.as_str())
            .collect();
        assert!(
            fields.contains(&"in_use") && fields.contains(&"FLAG"),
            "{fields:?}"
        );
    }

    #[test]
    fn tuple_field_receivers_resolve_to_the_named_part() {
        let src = "impl AtomicF64 {\n  fn get(&self) -> u64 { self.0.load(Ordering::Relaxed) }\n}\nfn tick(cursors: &[(AtomicUsize, u32)], w: usize) { cursors[w].0.fetch_add(1, Ordering::Relaxed); }\n";
        let syn = parse(src);
        assert_eq!(fn_named(&syn, "get").atomic_sites[0].field, "self");
        assert_eq!(fn_named(&syn, "tick").atomic_sites[0].field, "cursors");
    }

    #[test]
    fn wrapper_calls_do_not_steal_inner_orderings() {
        let src = "fn f(x: AtomicU32) -> Option<u32> { Some(x.load(Ordering::Acquire)) }\nfn g(a: AtomicU32) { helper(&a, Ordering::AcqRel); }\n";
        let syn = parse(src);
        let f = fn_named(&syn, "f");
        assert_eq!(f.atomic_sites.len(), 1);
        assert_eq!(f.atomic_sites[0].field, "x");
        let g = fn_named(&syn, "g");
        assert_eq!(g.atomic_sites.len(), 1);
        assert_eq!(g.atomic_sites[0].field, "fn:helper");
    }

    #[test]
    fn worker_closures_and_blocking_sites() {
        let src = "fn op(pool: &ThreadPool, m: Mutex<u32>) {\n  before.lock();\n  pool.parallel_for(0..n, Schedule::Static, |i| {\n    m.lock();\n    work(i);\n  });\n  after.lock();\n}\n";
        let syn = parse(src);
        let f = fn_named(&syn, "op");
        assert_eq!(f.worker_regions.len(), 1);
        // Exactly the lock on line 3 (0-based) is inside the closure.
        let inside: Vec<_> = f
            .blocking_sites
            .iter()
            .filter(|b| f.in_worker(b.tok))
            .map(|b| b.line)
            .collect();
        assert_eq!(inside, vec![3]);
        assert_eq!(f.blocking_sites.len(), 3);
        // The call to `work` is inside the region; `before`/`after` not.
        let work = f.calls.iter().find(|c| c.callee == "work").unwrap();
        assert!(f.in_worker(work.tok));
    }

    #[test]
    fn lease_sites_and_escape_detection() {
        let src = "fn leak(ctx: &Context) { let v = ctx.take_f64_buffer(); use_it(&v); }\nfn source(ctx: &Context) -> Vec<f64> { ctx.take_f64_buffer() }\nfn ret(ctx: &Context) -> Vec<f64> { return ctx.take_f64_buffer(); }\nfn balanced(ctx: &Context) { let v = ctx.take_f64_buffer(); ctx.recycle_f64_buffer(v); }\n";
        let syn = parse(src);
        let at = |name: &str| &fn_named(&syn, name).lease_sites;
        assert!(!at("leak")[0].escapes);
        assert!(at("source")[0].escapes);
        assert!(at("ret")[0].escapes);
        let b = at("balanced");
        assert_eq!(b.len(), 2);
        assert!(b.iter().any(|l| !l.is_acquire));
    }

    #[test]
    fn bound_then_returned_leases_escape() {
        // The workspace's dominant handoff shape: bind the lease, mutate it,
        // return it as the tail expression — bare, inside a tuple, or via an
        // explicit `return`. A binding that is dropped on the floor (or
        // shadowed away from the tail) must NOT count as escaping.
        let src = "\
fn tail(ctx: &Context, n: usize) -> Vec<f64> { let mut v = ctx.take_f64_buffer(); v.resize(n, 0.0); v }\n\
fn tuple_tail(ctx: &Context) -> (DenseFrontier, usize) { let output = ctx.take_dense_frontier(9); let m = scan(); (output, m) }\n\
fn destructured(ctx: &Context) -> Vec<u32> { let (buf, _n) = (ctx.take_u32_buffer(), 3); buf }\n\
fn explicit(ctx: &Context) -> Vec<f64> { let v = ctx.take_f64_buffer(); if v.is_empty() { return v; } ctx.recycle_f64_buffer(v); Vec::new() }\n\
fn dropped(ctx: &Context) -> usize { let v = ctx.take_f64_buffer(); v.len() }\n";
        let syn = parse(src);
        let acq = |name: &str| {
            fn_named(&syn, name)
                .lease_sites
                .iter()
                .find(|l| l.is_acquire)
                .unwrap()
                .escapes
        };
        assert!(acq("tail"));
        assert!(acq("tuple_tail"));
        assert!(acq("destructured"));
        assert!(acq("explicit"));
        assert!(!acq("dropped"));
    }

    #[test]
    fn trait_signatures_and_dyn_hints() {
        let src = "trait Sink {\n  fn record(&self, x: u32);\n}\nfn drive(s: &dyn Sink) { s.record(1); }\n";
        let syn = parse(src);
        assert!(
            !syn.fns.iter().any(|f| f.name == "record"),
            "bodiless sig parsed as fn"
        );
        let d = fn_named(&syn, "drive");
        let c = d.calls.iter().find(|c| c.callee == "record").unwrap();
        assert_eq!(c.recv_type.as_deref(), Some("dyn Sink"));
    }
}
