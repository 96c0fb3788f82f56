//! The rule catalog (the lexical half — the interprocedural rules live in
//! `interproc`, the per-field atomic checks in `atomics`).
//!
//! | id    | invariant                                                        |
//! |-------|------------------------------------------------------------------|
//! | EL001 | every `unsafe` is annotated with a `SAFETY:`/`# Safety` comment  |
//! | EL002 | `unsafe` only appears in allowlisted low-level modules           |
//! | EL010 | an atomic *field* has a `LINT_ORDERINGS.toml` entry              |
//! | EL011 | every atomic `Ordering` is in its field's allowed set            |
//! | EL012 | the ordering table carries no stale entries (both directions)    |
//! | EL013 | Release/AcqRel writes pair with an Acquire reader somewhere in   |
//! |       | the workspace; Relaxed-only fields record a `barrier =` instead  |
//! | EL014 | no `add`/`fetch_add`/`fetch_sub`/`insert` on a captured binding  |
//! |       | inside a per-edge closure of the advance family (`rmw-ok:`)      |
//! | EL020 | hot-path modules don't allocate without an `alloc-ok:` waiver    |
//! | EL021 | no alloc-shaped code within k call hops of a worker chunk body   |
//! | EL030 | `take_scratch`/`put_scratch` are paired per function             |
//! | EL031 | checked-out leases are recycled or returned on every path        |
//! | EL040 | resilience-audited crates don't `unwrap()`/`expect()` unwaived   |
//! | EL050 | no blocking call reachable from a worker chunk body              |
//!
//! Diagnostics are `path:line: ELxxx message` — one line each, sorted, no
//! colors, no fix-ups — so CI output diffs cleanly against a previous run.

use std::collections::BTreeMap;
use std::fmt;

use crate::config::ATOMIC_ORDERINGS;
use crate::lexer::{contains_word, find_word};
use crate::model::FileModel;

/// Modules in which `unsafe` is permitted (EL002). Everything else must
/// build on the safe abstractions these export. Extending this list is a
/// reviewed diff of the linter itself — which is the point.
///
/// Files under a `tests/` directory and `#[cfg(test)]` regions are exempt
/// from the *allowlist* (test harnesses legitimately implement e.g.
/// `GlobalAlloc`), but never from the `SAFETY:` comment rule.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    // The threading substrate: lifetime-erased regions, and the chunk
    // loop's disjoint `&mut` windows — the one disjoint-write split every
    // other crate builds on.
    "crates/parallel/src/",
    // Lock-free per-worker collection buffers.
    "crates/frontier/src/worker_buffers.rs",
    // The generic AtomicPtr slot substrate under the scratch exchanger.
    "crates/core/src/slot.rs",
    // The advance operators that drive the buffers.
    "crates/core/src/operators/advance.rs",
    // The mmap loader: read-only page mappings reinterpreted as the
    // aligned sections a CcsrView borrows (DESIGN.md §14).
    "crates/io/src/mmap.rs",
];

/// Modules under the zero-allocation steady-state contract (EL020); see
/// `tests/zero_alloc.rs` for the dynamic counterpart of this gate.
pub const HOT_PATH_MODULES: &[&str] = &[
    "crates/core/src/operators/advance.rs",
    "crates/core/src/operators/blocked.rs",
    "crates/core/src/scratch.rs",
    "crates/parallel/src/scan.rs",
    "crates/frontier/src/worker_buffers.rs",
    // The serving engine's per-request checkout path: a lease must be one
    // CAS, never an allocation (the zero-alloc serving test is the dynamic
    // counterpart).
    "crates/serve/src/pool.rs",
];

/// Crates whose *library* code must not `unwrap()`/`expect()` a fallible
/// value without a same-line waiver (EL040). With the resilient execution
/// layer turning worker panics into typed `ExecError`s, an unwrap on
/// these paths is a latent panic that bypasses the error taxonomy: the
/// hot-path crates sit inside `catch_unwind` regions, and the io readers
/// return line-numbered errors instead of panicking on malformed input.
/// Test files and `#[cfg(test)]` regions are exempt.
pub const NO_UNWRAP_CRATES: &[&str] = &[
    "crates/parallel/src/",
    "crates/core/src/",
    "crates/frontier/src/",
    "crates/io/src/",
    "crates/serve/src/",
];

/// Panic-shaped method calls flagged by EL040. `.unwrap_or*`,
/// `.unwrap_err(…)` and `.expect_err(…)` do not match — they are either
/// infallible or themselves assertions about errors.
const UNWRAP_PATTERNS: &[&str] = &[".unwrap()", ".expect("];

/// Allocation-shaped constructs flagged in hot-path modules (EL020) and in
/// code reachable from worker chunk bodies (EL021).
pub const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new(",
    "Vec::with_capacity(",
    "vec!",
    "Box::new(",
    ".to_vec(",
    ".collect(",
    ".collect::<",
    ".clone(",
    ".push(",
];

/// One finding.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    pub path: String,
    /// 1-based.
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} {}", self.path, self.line, self.rule, self.msg)
    }
}

fn diag(path: &str, line: usize, rule: &'static str, msg: impl Into<String>) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line: line + 1, // models are 0-based
        rule,
        msg: msg.into(),
    }
}

/// True for files whose whole content is test code (integration tests,
/// fixtures aside — those are never walked).
pub fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

fn is_allowlisted(path: &str) -> bool {
    UNSAFE_ALLOWLIST
        .iter()
        .any(|p| path == *p || (p.ends_with('/') && path.starts_with(p)))
}

/// EL001 + EL002: the SAFETY rules.
pub fn check_unsafe(path: &str, m: &FileModel, out: &mut Vec<Diagnostic>) {
    for (i, line) in m.lines.iter().enumerate() {
        if !contains_word(&line.code, "unsafe") {
            continue;
        }
        if !has_safety_comment(m, i) {
            out.push(diag(
                path,
                i,
                "EL001",
                "`unsafe` without a `// SAFETY:` comment (same line or the comment \
                 block directly above; `/// # Safety` docs count for `unsafe fn`)",
            ));
        }
        if !is_allowlisted(path) && !is_test_file(path) && !m.in_test[i] {
            out.push(diag(
                path,
                i,
                "EL002",
                "`unsafe` outside the allowlisted low-level modules (see \
                 UNSAFE_ALLOWLIST in essentials-lint; extend it only with review)",
            ));
        }
    }
}

/// A `SAFETY:`/`# Safety` annotation on the line itself or in the contiguous
/// comment/attribute block directly above it.
fn has_safety_comment(m: &FileModel, line: usize) -> bool {
    let marks = |c: &str| c.contains("SAFETY:") || c.contains("# Safety");
    if marks(&m.lines[line].comment) {
        return true;
    }
    let mut j = line;
    while j > 0 {
        j -= 1;
        let l = &m.lines[j];
        let code = l.code.trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        if !l.is_code_blank() && !is_attr {
            return false; // hit real code: block ended
        }
        if marks(&l.comment) {
            return true;
        }
        if l.is_code_blank() && l.comment.is_empty() {
            return false; // blank line breaks adjacency
        }
    }
    false
}

/// Atomic orderings used by a file: ordering name → lines of use (0-based).
pub fn orderings_used(m: &FileModel) -> BTreeMap<&'static str, Vec<usize>> {
    let mut used: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
    for (i, line) in m.lines.iter().enumerate() {
        let code = &line.code;
        let mut from = 0;
        while let Some(pos) = code[from..].find("Ordering::") {
            let at = from + pos;
            let rest = &code[at + "Ordering::".len()..];
            for name in ATOMIC_ORDERINGS {
                if rest.starts_with(name) && find_word(rest, name) == Some(0) {
                    used.entry(name).or_default().push(i);
                }
            }
            from = at + "Ordering::".len();
        }
    }
    used
}

/// EL020: allocation-shaped code in hot-path modules without a waiver.
pub fn check_hot_path_allocs(path: &str, m: &FileModel, out: &mut Vec<Diagnostic>) {
    if !HOT_PATH_MODULES.contains(&path) {
        return;
    }
    for (i, line) in m.lines.iter().enumerate() {
        if m.in_test[i] || line.comment.contains("alloc-ok:") {
            continue;
        }
        for pat in ALLOC_PATTERNS {
            if line.code.contains(pat) {
                out.push(diag(
                    path,
                    i,
                    "EL020",
                    format!(
                        "`{}` in a zero-alloc hot-path module — justify with a \
                         same-line `// alloc-ok: <reason>` waiver or hoist it \
                         out of the hot path",
                        pat.trim_end_matches('(')
                    ),
                ));
                break; // one diagnostic per line
            }
        }
    }
}

/// EL040: unwaived `unwrap()`/`expect()` in library code of the
/// resilience-audited crates.
pub fn check_unwraps(path: &str, m: &FileModel, out: &mut Vec<Diagnostic>) {
    if is_test_file(path) || !NO_UNWRAP_CRATES.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for (i, line) in m.lines.iter().enumerate() {
        if m.in_test[i] || line.comment.contains("unwrap-ok:") {
            continue;
        }
        for pat in UNWRAP_PATTERNS {
            if line.code.contains(pat) {
                out.push(diag(
                    path,
                    i,
                    "EL040",
                    format!(
                        "`{}` in library code of a resilience-audited crate — return \
                         a typed error instead, or justify the invariant with a \
                         same-line `// unwrap-ok: <reason>` waiver",
                        pat.trim_start_matches('.').trim_end_matches('(')
                    ),
                ));
                break; // one diagnostic per line
            }
        }
    }
}

/// EL030: `take_scratch`/`put_scratch` pairing per function.
pub fn check_scratch_pairing(path: &str, m: &FileModel, out: &mut Vec<Diagnostic>) {
    if is_test_file(path) {
        return;
    }
    for f in &m.functions {
        let mut takes: Vec<usize> = Vec::new();
        let mut puts: Vec<usize> = Vec::new();
        for i in f.start..=f.end.min(m.lines.len().saturating_sub(1)) {
            if m.in_test[i] {
                continue;
            }
            // Skip the definition sites of the pairing API itself.
            if i == f.decl_line
                && (contains_word(&m.lines[i].code, "fn")
                    && (m.lines[i].code.contains("fn take_scratch")
                        || m.lines[i].code.contains("fn put_scratch")))
            {
                continue;
            }
            // Attribute to the innermost function only.
            if m.enclosing_fn(i).map(|g| (g.start, g.end)) != Some((f.start, f.end)) {
                continue;
            }
            if contains_word(&m.lines[i].code, "take_scratch") {
                takes.push(i);
            }
            if contains_word(&m.lines[i].code, "put_scratch") {
                puts.push(i);
            }
        }
        if !takes.is_empty() && puts.is_empty() {
            out.push(diag(
                path,
                takes[0],
                "EL030",
                "take_scratch without a put_scratch in the same function — the \
                 scratch must return to the Context slot on every path",
            ));
        }
        if !puts.is_empty() && takes.is_empty() {
            out.push(diag(
                path,
                puts[0],
                "EL030",
                "put_scratch without a take_scratch in the same function — \
                 returning a scratch you did not take is an ownership smell",
            ));
        }
    }
}
