//! Per-field atomic analysis: the observed-usage map behind the per-field
//! `LINT_ORDERINGS.toml` checks (EL010/EL011/EL012), the workspace-wide
//! release/acquire pairing rule (EL013), and the no-shared-counter-per-edge
//! rule (EL014).
//!
//! Field keys come from the parser ([`crate::parse::AtomicSite`]):
//! `struct.field` receivers resolve to the field name, statics to the
//! static's name, orderings passed into helper functions to `fn:<helper>`,
//! and orderings the parser could not attach to any call to `*`. Pairing
//! (EL013) runs only over real field keys — helper-keyed sites have an
//! unknown op direction, which is a documented unsoundness (DESIGN.md §15).

use std::collections::{BTreeMap, BTreeSet};

use crate::config::OrderingTable;
use crate::interproc::WsFile;
use crate::lexer::contains_word;
use crate::model::FileModel;
use crate::parse::{
    call_args, closures_in, op_reads, op_writes, ClosureSpan, FileSyntax, Tok, TokKind,
};
use crate::rules::{is_test_file, Diagnostic};

/// The modules of `core::operators` whose free `pub fn`s make up the
/// advance family (EL014). The closures those functions take run once per
/// edge or per candidate destination, and so do the closures inside the
/// modules' own bodies.
pub const ADVANCE_MODULES: &[&str] = &[
    "crates/core/src/operators/advance.rs",
    "crates/core/src/operators/direction.rs",
];

/// Counter-shaped read-modify-writes EL014 forbids on a captured binding.
/// `insert` is `DenseFrontier::insert`, which bumps the frontier's shared
/// cached count per admitted vertex; kernels set bits and `recount` once.
pub const COUNTER_RMWS: &[&str] = &["add", "fetch_add", "fetch_sub", "insert"];

/// One observed `(ordering, line)` use of a field in a file.
#[derive(Debug, Clone)]
pub struct FieldUse {
    pub ordering: &'static str,
    /// 0-based line.
    pub line: usize,
    /// The op name (`load`, `store`, `fetch_or`, helper name, or `loose`).
    pub op: String,
    /// Whether the op can publish (write side) / observe (read side).
    pub writes: bool,
    pub reads: bool,
}

/// Observed atomic usage of one file: field key → uses.
pub type FileAtomics = BTreeMap<String, Vec<FieldUse>>;

/// Collects the per-field usage map for one file, reconciling the parsed
/// sites against the lexical `Ordering::X` scan: any occurrence the parser
/// did not attach to a call (stored orderings, match arms) lands on the
/// pseudo-field `*` so nothing escapes the table.
pub fn file_atomics(m: &FileModel, syn: &FileSyntax) -> FileAtomics {
    let mut out: FileAtomics = BTreeMap::new();
    let mut claimed: Vec<(usize, &'static str)> = Vec::new();
    for f in &syn.fns {
        for site in &f.atomic_sites {
            let is_helper = site.field.starts_with("fn:");
            for &(name, line) in &site.orderings {
                claimed.push((line, name));
                out.entry(site.field.clone()).or_default().push(FieldUse {
                    ordering: name,
                    line,
                    op: site.op.clone(),
                    writes: !is_helper && op_writes(&site.op),
                    reads: !is_helper && op_reads(&site.op),
                });
            }
        }
    }
    // Lexical reconciliation: every `Ordering::X` in the code channel must
    // be accounted for.
    for (name, lines) in crate::rules::orderings_used(m) {
        for line in lines {
            let hit = claimed.iter().position(|&(l, n)| l == line && n == name);
            match hit {
                Some(i) => {
                    claimed.swap_remove(i);
                }
                None => out.entry("*".to_string()).or_default().push(FieldUse {
                    ordering: name,
                    line,
                    op: "loose".to_string(),
                    writes: false,
                    reads: false,
                }),
            }
        }
    }
    out
}

fn diag(path: &str, line: usize, rule: &'static str, msg: String) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line: line + 1,
        rule,
        msg,
    }
}

/// EL010 + EL011 for one file against the per-field table. Returns the
/// fields observed (for the staleness pass).
pub fn check_fields(
    path: &str,
    atomics: &FileAtomics,
    table: &OrderingTable,
    out: &mut Vec<Diagnostic>,
) {
    for (field, uses) in atomics {
        let Some(entry) = table.entry_for(path, field) else {
            let first = uses.iter().map(|u| u.line).min().unwrap_or(0);
            let mut names: Vec<&str> = uses.iter().map(|u| u.ordering).collect();
            names.sort_unstable();
            names.dedup();
            out.push(diag(
                path,
                first,
                "EL010",
                format!(
                    "atomic field `{field}` uses orderings ({}) but has no \
                     LINT_ORDERINGS.toml entry for (path, field)",
                    names.join(", ")
                ),
            ));
            continue;
        };
        for u in uses {
            if !entry.allow.iter().any(|a| a == u.ordering) {
                out.push(diag(
                    path,
                    u.line,
                    "EL011",
                    format!(
                        "Ordering::{} on field `{field}` is not in its allowed set \
                         [{}] — change the code or update the table with a new `why`",
                        u.ordering,
                        entry.allow.join(", ")
                    ),
                ));
            }
        }
    }
}

/// EL012: table staleness in both directions, over the observed
/// `(path → field → uses)` map.
pub fn check_staleness(
    table: &OrderingTable,
    seen: &BTreeMap<String, FileAtomics>,
    out: &mut Vec<Diagnostic>,
) {
    for entry in &table.entries {
        let observed = seen.get(&entry.path).and_then(|f| f.get(&entry.field));
        match observed {
            None => out.push(Diagnostic {
                path: "LINT_ORDERINGS.toml".to_string(),
                line: entry.line,
                rule: "EL012",
                msg: format!(
                    "stale entry: no atomic use of field `{}` observed in `{}`",
                    entry.field, entry.path
                ),
            }),
            Some(uses) => {
                for allowed in &entry.allow {
                    if !uses.iter().any(|u| u.ordering == allowed) {
                        out.push(Diagnostic {
                            path: "LINT_ORDERINGS.toml".to_string(),
                            line: entry.line,
                            rule: "EL012",
                            msg: format!(
                                "stale entry: `{}` field `{}` allows Ordering::{} but \
                                 the code no longer uses it",
                                entry.path, entry.field, allowed
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// EL013: workspace-wide release/acquire pairing per field, plus the
/// Relaxed-only barrier-justification requirement.
///
/// Pairing groups sites by *field name* across files: the release side of
/// a protocol frequently lives in a different function (or crate) than its
/// acquire side, and a same-named field in two unrelated structs would
/// only mask a finding, never invent one on the release side (it can mask
/// — documented unsoundness). Helper-keyed (`fn:…`) and loose (`*`) sites
/// carry no direction and are excluded.
pub fn check_pairing(
    seen: &BTreeMap<String, FileAtomics>,
    table: &OrderingTable,
    out: &mut Vec<Diagnostic>,
) {
    // field name → (release-writes, acquire-reads, first write site).
    struct Pair {
        rel_writes: Vec<(String, usize)>,
        acq_reads: usize,
    }
    let mut fields: BTreeMap<&str, Pair> = BTreeMap::new();
    for (path, atomics) in seen {
        for (field, uses) in atomics {
            if field.starts_with("fn:") || field == "*" {
                continue;
            }
            let p = fields.entry(field.as_str()).or_insert(Pair {
                rel_writes: Vec::new(),
                acq_reads: 0,
            });
            for u in uses {
                let rel = matches!(u.ordering, "Release" | "AcqRel" | "SeqCst");
                let acq = matches!(u.ordering, "Acquire" | "AcqRel" | "SeqCst");
                if u.writes && rel {
                    p.rel_writes.push((path.clone(), u.line));
                }
                if u.reads && acq {
                    p.acq_reads += 1;
                }
            }
        }
    }
    for (field, p) in &fields {
        if !p.rel_writes.is_empty() && p.acq_reads == 0 {
            let (path, line) = &p.rel_writes[0];
            out.push(diag(
                path,
                *line,
                "EL013",
                format!(
                    "field `{field}` is written with Release/AcqRel but no \
                     Acquire/AcqRel reader of it exists anywhere in the workspace \
                     — the publish has no observer to pair with"
                ),
            ));
        }
    }

    // Relaxed-only fields must record what provides the happens-before
    // edge instead (`barrier = "…"` in the table).
    for (path, atomics) in seen {
        for (field, uses) in atomics {
            if field.starts_with("fn:") || field == "*" {
                continue;
            }
            if !uses.iter().all(|u| u.ordering == "Relaxed") {
                continue;
            }
            if let Some(entry) = table.entry_for(path, field) {
                if entry.barrier.is_none() {
                    out.push(Diagnostic {
                        path: "LINT_ORDERINGS.toml".to_string(),
                        line: entry.line,
                        rule: "EL013",
                        msg: format!(
                            "field `{field}` in `{path}` is Relaxed-only: its table \
                             entry must carry `barrier = \"…\"` naming what provides \
                             the happens-before edge (region barrier, join, mutex)"
                        ),
                    });
                }
            }
            // No entry at all is EL010's finding; don't double-report.
        }
    }
}

/// EL014: no counter read-modify-write on a captured binding inside a
/// per-edge closure — a closure passed to the advance family, or any
/// closure in the family's own modules. Every worker would hit the one
/// cache line of that counter once per edge, which costs more than the
/// edge itself. The family is derived from [`ADVANCE_MODULES`]' public API,
/// not listed by hand.
///
/// Only bare receivers count (`updates.add(1)`, `self.hits.fetch_add(…)`):
/// an indexed cell (`deg[dst].fetch_sub(…)`) is per-vertex data, not a
/// shared tally. Bindings the closure introduces itself (parameters,
/// `let`, `for`, nested closure parameters) are not captured. Test code
/// is exempt; `// rmw-ok: <reason>` waives one line.
pub fn check_edge_counters(files: &[WsFile], out: &mut Vec<Diagnostic>) {
    let family: BTreeSet<&str> = files
        .iter()
        .filter(|f| ADVANCE_MODULES.contains(&f.path.as_str()))
        .flat_map(|f| &f.syn.fns)
        .filter(|f| f.is_pub && f.self_type.is_none())
        .map(|f| f.name.as_str())
        .collect();
    for f in files {
        if is_test_file(&f.path) {
            continue;
        }
        let toks = &f.syn.toks;
        let own_module = ADVANCE_MODULES.contains(&f.path.as_str());
        for func in &f.syn.fns {
            let end = func.tok_span.1;
            let closures = closures_in(toks, func.tok_span.0, end);
            let arg_lists: Vec<(usize, usize, &str)> = func
                .calls
                .iter()
                .filter(|c| family.contains(c.callee.as_str()))
                .filter_map(|c| call_args(toks, c.tok, end).map(|(a, b)| (a, b, &*c.callee)))
                .collect();
            // Per-edge closures and the family member each one runs under.
            let per_edge: Vec<(usize, usize, &str)> = closures
                .iter()
                .filter_map(|cl| {
                    let via = arg_lists
                        .iter()
                        .find(|&&(a, b, _)| a < cl.bar && cl.body.1 < b)
                        .map(|&(_, _, name)| name)
                        .or(own_module.then_some(func.name.as_str()))?;
                    Some((cl.bar, cl.body.1, via))
                })
                .collect();
            for &(lo, hi, via) in &per_edge {
                // Only the outermost closure of a nest is checked, against
                // every binding the nest introduces.
                if per_edge.iter().any(|&(a, b, _)| a < lo && hi <= b) {
                    continue;
                }
                let locals = closure_locals(toks, lo, hi, &closures);
                for t in lo..=hi {
                    let Some(recv) = counter_rmw_receiver(toks, t) else {
                        continue;
                    };
                    let line = toks[t].line;
                    if locals.contains(recv.0.as_str())
                        || f.model.in_test.get(line).copied().unwrap_or(false)
                        || line_waived(&f.model, line, "rmw-ok:")
                    {
                        continue;
                    }
                    out.push(diag(
                        &f.path,
                        line,
                        "EL014",
                        format!(
                            "`{}.{}` on a captured binding inside a per-edge closure \
                             (under `{via}`): every worker hits one shared cache line \
                             per edge — take the count from the operator \
                             (`AdaptiveAdvance::edges_inspected`), fold a per-chunk \
                             local, or justify with a same-line `// rmw-ok: <reason>` \
                             waiver",
                            recv.1, toks[t].text
                        ),
                    ));
                }
            }
        }
    }
}

/// If token `t` is the method name of a counter RMW call on a bare
/// receiver path (`a.b.add(`), returns `(root, path)`; indexed or computed
/// receivers (`a[i].add(`, `f().add(`) return `None`.
fn counter_rmw_receiver(toks: &[Tok], t: usize) -> Option<(String, String)> {
    let is_name = |k: usize| matches!(toks[k].kind, TokKind::Ident | TokKind::Num);
    if !COUNTER_RMWS.contains(&toks[t].text.as_str())
        || t < 2
        || toks[t - 1].text != "."
        || toks.get(t + 1).is_none_or(|n| n.text != "(")
        || !is_name(t - 2)
    {
        return None;
    }
    let mut k = t - 2;
    while k >= 2 && toks[k - 1].text == "." && is_name(k - 2) {
        k -= 2;
    }
    if (k >= 1 && toks[k - 1].text == ".") || toks[k].kind != TokKind::Ident {
        return None;
    }
    let path: Vec<&str> = (k..t - 1)
        .step_by(2)
        .map(|i| toks[i].text.as_str())
        .collect();
    Some((toks[k].text.clone(), path.join(".")))
}

/// Names a closure nest binds itself: every parameter of every closure in
/// `lo..=hi`, and the `let` / `for` pattern names in it. Over-approximate
/// on purpose (type names in annotations land here too): a stray name can
/// only hide a finding, never invent one.
fn closure_locals<'a>(
    toks: &'a [Tok],
    lo: usize,
    hi: usize,
    closures: &[ClosureSpan],
) -> BTreeSet<&'a str> {
    let mut names = BTreeSet::new();
    let mut take = |range: std::ops::Range<usize>| {
        for tok in &toks[range] {
            if tok.kind == TokKind::Ident && !matches!(tok.text.as_str(), "mut" | "ref") {
                names.insert(tok.text.as_str());
            }
        }
    };
    for cl in closures.iter().filter(|cl| lo <= cl.bar && cl.bar <= hi) {
        take(cl.params.0..cl.params.1);
    }
    for i in lo..=hi {
        let stop: &[&str] = match toks[i].text.as_str() {
            "let" => &["=", ":", ";"],
            "for" => &["in"],
            _ => continue,
        };
        let end = (i + 1..=hi)
            .find(|&j| stop.contains(&toks[j].text.as_str()))
            .unwrap_or(hi);
        take(i + 1..end);
    }
    names
}

/// Renders the observed usage map as per-field TOML entry skeletons — the
/// `--dump-atomics` migration aid.
pub fn dump_toml(seen: &BTreeMap<String, FileAtomics>) -> String {
    let mut out = String::new();
    for (path, atomics) in seen {
        for (field, uses) in atomics {
            let mut names: Vec<&str> = uses.iter().map(|u| u.ordering).collect();
            names.sort_unstable();
            names.dedup();
            let mut ops: Vec<&str> = uses.iter().map(|u| u.op.as_str()).collect();
            ops.sort_unstable();
            ops.dedup();
            out.push_str("[[atomic]]\n");
            out.push_str(&format!("path = \"{path}\"\n"));
            out.push_str(&format!("field = \"{field}\"\n"));
            out.push_str(&format!(
                "allow = [{}]\n",
                names
                    .iter()
                    .map(|n| format!("\"{n}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            out.push_str(&format!("why = \"TODO ({})\"\n\n", ops.join(", ")));
        }
    }
    out
}

/// True when any line of the span carries the given waiver marker in its
/// comment channel.
pub fn line_waived(m: &FileModel, line: usize, marker: &str) -> bool {
    m.lines
        .get(line)
        .is_some_and(|l| l.comment.contains(marker) || contains_word(&l.comment, marker))
}
