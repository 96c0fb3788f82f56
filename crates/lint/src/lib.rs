//! `essentials-lint` — the workspace's concurrency-correctness gate.
//!
//! The paper's portability claim (operators keep identical semantics while
//! execution policies swap parallel strategies underneath) rests on a small
//! set of hand-maintained invariants the Rust compiler cannot check: every
//! `unsafe` block is justified and quarantined, every atomic ordering is a
//! recorded per-field decision with a pairing story, the operator hot path
//! does not allocate or block — even transitively — and every pooled lease
//! returns to its pool. This crate enforces those as a static-analysis pass
//! over the workspace's own sources: a comment/string-aware lexer
//! (`lexer`), a token-tree parser extracting functions, call sites, atomic
//! fields and leases (`parse`), a heuristically-resolved call graph with an
//! explicit unresolved-edge report (`callgraph`), and the rule layers
//! (`rules` for lexical checks, `atomics` for the per-field ordering table,
//! `interproc` for reachability rules). Run as
//! `cargo run -p essentials-lint`, in CI, and by its own test suite against
//! a corpus of known-bad fixtures.
//!
//! The crate is dependency-free by design; DESIGN.md §15 documents the
//! analysis model and its known unsoundness.

pub mod atomics;
pub mod callgraph;
pub mod config;
pub mod interproc;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod rules;
pub mod walk;

use std::collections::BTreeMap;
use std::path::Path;

pub use callgraph::UnresolvedEdge;
pub use rules::Diagnostic;

/// Aggregate run statistics (reported, and asserted on by fixtures so a
/// resolver regression cannot silently zero a category).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LintStats {
    pub files: usize,
    pub functions: usize,
    /// Resolved call-edge instances.
    pub resolved_calls: usize,
    /// Call sites the resolver declined to pin down (see
    /// [`LintReport::unresolved`] for the sites themselves).
    pub unresolved_calls: usize,
    /// Distinct `(path, field)` atomic keys observed.
    pub atomic_fields: usize,
}

/// Everything one lint run produces.
#[derive(Debug)]
pub struct LintReport {
    /// All findings, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Call edges the resolver reported rather than guessed (trait
    /// dispatch, ambiguous bare names). Not failures — but never silently
    /// zero either.
    pub unresolved: Vec<UnresolvedEdge>,
    pub stats: LintStats,
}

/// Lints the workspace rooted at `root` (the directory holding
/// `LINT_ORDERINGS.toml`).
///
/// `Err` means the run itself could not proceed (unreadable tree, malformed
/// ordering table) — callers should treat that as a failure too, not a pass.
pub fn run_root(root: &Path) -> Result<LintReport, String> {
    let table_path = root.join("LINT_ORDERINGS.toml");
    let table_src = std::fs::read_to_string(&table_path)
        .map_err(|e| format!("cannot read {}: {e}", table_path.display()))?;
    let table = config::parse(&table_src).map_err(|e| e.to_string())?;

    let rels = walk::workspace_rs_files(root).map_err(|e| format!("walking {root:?}: {e}"))?;

    // --- phase 1: per-file models and lexical rules -----------------------
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut files: Vec<interproc::WsFile> = Vec::new();
    for rel in &rels {
        let path = walk::rel_str(rel);
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        let m = model::FileModel::build(lexer::split_lines(&src));
        let syn = parse::parse_file(&m.lines);
        rules::check_unsafe(&path, &m, &mut out);
        rules::check_hot_path_allocs(&path, &m, &mut out);
        rules::check_scratch_pairing(&path, &m, &mut out);
        rules::check_unwraps(&path, &m, &mut out);
        files.push(interproc::WsFile {
            path,
            model: m,
            syn,
        });
    }

    // --- phase 2: per-field atomic checks ---------------------------------
    let mut seen: BTreeMap<String, atomics::FileAtomics> = BTreeMap::new();
    for f in &files {
        let observed = atomics::file_atomics(&f.model, &f.syn);
        if observed.is_empty() {
            continue;
        }
        atomics::check_fields(&f.path, &observed, &table, &mut out);
        seen.insert(f.path.clone(), observed);
    }
    atomics::check_staleness(&table, &seen, &mut out);
    atomics::check_pairing(&seen, &table, &mut out);
    atomics::check_edge_counters(&files, &mut out);

    // --- phase 3: call graph and interprocedural rules --------------------
    let triples: Vec<(String, bool, &parse::FileSyntax)> = files
        .iter()
        .map(|f| (f.path.clone(), rules::is_test_file(&f.path), &f.syn))
        .collect();
    let graph = callgraph::build(&triples, |file_idx, line| {
        files[file_idx]
            .model
            .in_test
            .get(line)
            .copied()
            .unwrap_or(false)
    });
    interproc::check_worker_reachability(&files, &graph, &mut out);
    interproc::check_lease_lifecycle(&files, &graph, &mut out);

    out.sort();
    out.dedup();
    let stats = LintStats {
        files: files.len(),
        functions: graph.fns.len(),
        resolved_calls: graph.resolved_count,
        unresolved_calls: graph.unresolved.len(),
        atomic_fields: seen.values().map(|f| f.len()).sum(),
    };
    Ok(LintReport {
        diagnostics: out,
        unresolved: graph.unresolved,
        stats,
    })
}

/// Renders the observed per-field atomic usage of the workspace as
/// `[[atomic]]` TOML skeletons — the `--dump-atomics` migration aid.
pub fn dump_atomics(root: &Path) -> Result<String, String> {
    let rels = walk::workspace_rs_files(root).map_err(|e| format!("walking {root:?}: {e}"))?;
    let mut seen: BTreeMap<String, atomics::FileAtomics> = BTreeMap::new();
    for rel in &rels {
        let path = walk::rel_str(rel);
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        let m = model::FileModel::build(lexer::split_lines(&src));
        let syn = parse::parse_file(&m.lines);
        let observed = atomics::file_atomics(&m, &syn);
        if !observed.is_empty() {
            seen.insert(path, observed);
        }
    }
    Ok(atomics::dump_toml(&seen))
}

/// Serializes a report as a stable JSON document (the CI artifact). No
/// serde: the shape is flat and the strings only need `"`/`\` escaping.
pub fn report_to_json(report: &LintReport) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut s = String::from("{\n  \"diagnostics\": [\n");
    for (i, d) in report.diagnostics.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"msg\": \"{}\"}}{}\n",
            esc(&d.path),
            d.line,
            d.rule,
            esc(&d.msg),
            if i + 1 < report.diagnostics.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n  \"unresolved_calls\": [\n");
    for (i, u) in report.unresolved.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"path\": \"{}\", \"line\": {}, \"callee\": \"{}\", \"reason\": \"{}\"}}{}\n",
            esc(&u.path),
            u.line,
            esc(&u.callee),
            esc(&u.reason),
            if i + 1 < report.unresolved.len() {
                ","
            } else {
                ""
            }
        ));
    }
    let st = &report.stats;
    s.push_str(&format!(
        "  ],\n  \"stats\": {{\"files\": {}, \"functions\": {}, \"resolved_calls\": {}, \
         \"unresolved_calls\": {}, \"atomic_fields\": {}}}\n}}\n",
        st.files, st.functions, st.resolved_calls, st.unresolved_calls, st.atomic_fields
    ));
    s
}
