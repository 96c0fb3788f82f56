//! The interprocedural rules: properties of the call graph, not of any one
//! line.
//!
//! | id    | invariant                                                      |
//! |-------|----------------------------------------------------------------|
//! | EL021 | no alloc-shaped code within [`HOT_HOPS`] call hops of a worker |
//! |       | chunk body (`// alloc-ok:` waiver)                             |
//! | EL031 | a checked-out lease is recycled or returned on every path;     |
//! |       | escaping leases are tracked one caller up (`// lease-ok:`)     |
//! | EL050 | no blocking call (condvar wait, mutex lock, channel recv,      |
//! |       | sleep) reachable from a worker chunk body (`// block-ok:`)     |
//!
//! Reachability is seeded from the *calls inside* worker closures — the
//! chunk bodies handed to `parallel_for`/`try_for_each_chunk_mut` — and follows
//! resolved edges only. Unresolved edges (trait dispatch, ambiguous names)
//! do not extend reach; that under-approximation is exactly why the
//! unresolved-edge count is a first-class output of the run.

use std::collections::BTreeMap;

use crate::callgraph::{CallGraph, FnId};
use crate::model::FileModel;
use crate::parse::{FileSyntax, LEASE_FAMILIES};
use crate::rules::{Diagnostic, ALLOC_PATTERNS, HOT_PATH_MODULES};

/// One walked workspace file with its lexical and syntactic models.
pub struct WsFile {
    pub path: String,
    pub model: FileModel,
    pub syn: FileSyntax,
}

/// Call-hop budget for EL021/EL050 reachability. Two hops covers the
/// operator → helper → leaf shape the workspace actually uses while keeping
/// the heuristic resolver's mistakes from cascading.
pub const HOT_HOPS: usize = 2;

fn diag(path: &str, line: usize, rule: &'static str, msg: String) -> Diagnostic {
    Diagnostic {
        path: path.to_string(),
        line: line + 1,
        rule,
        msg,
    }
}

fn waived(m: &FileModel, line: usize, marker: &str) -> bool {
    m.lines
        .get(line)
        .is_some_and(|l| l.comment.contains(marker))
}

/// A method-shaped alloc pattern is a double-report when the same-named
/// call on that line resolved to a workspace function: the reachability
/// pass descends into the callee and judges *its* body instead.
/// (`self.push(…)` on the ccsr bit-writer packs bits into a preallocated
/// slice — it is not `Vec::push`.)
fn resolved_alloc_call(
    pat: &str,
    line: usize,
    f: &crate::parse::FnSyn,
    targets: &[(usize, FnId)],
) -> bool {
    let method = match pat {
        ".push(" => "push",
        ".clone(" => "clone",
        ".to_vec(" => "to_vec",
        ".collect(" | ".collect::<" => "collect",
        _ => return false,
    };
    targets.iter().any(|&(ci, _)| {
        let c = &f.calls[ci];
        c.line == line && c.callee == method
    })
}

/// EL021 + EL050: allocation-shaped code and blocking calls inside, or
/// reachable from, worker chunk bodies.
pub fn check_worker_reachability(files: &[WsFile], cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    // Findings keyed by (path, line, rule) so a site reached along several
    // paths reports once, with the shortest-hop provenance (BFS order).
    let mut found: BTreeMap<(String, usize, &'static str), String> = BTreeMap::new();

    // --- direct pass: the closure bodies themselves -----------------------
    let mut roots: Vec<FnId> = Vec::new();
    let mut entered_from: BTreeMap<FnId, (String, usize)> = BTreeMap::new();
    for (id, node) in cg.fns.iter().enumerate() {
        if node.is_test {
            continue;
        }
        let file = &files[node.file];
        let f = &file.syn.fns[node.fn_idx];
        if f.worker_regions.is_empty() {
            continue;
        }
        // Allocation shapes on the closure's own lines. Hot-path modules
        // are excluded: EL020 already gates every line of those files.
        if !HOT_PATH_MODULES.contains(&node.path.as_str()) {
            for (a, b) in f.worker_line_spans(&file.syn.toks) {
                for i in a..=b.min(file.model.lines.len().saturating_sub(1)) {
                    if file.model.in_test[i] || waived(&file.model, i, "alloc-ok:") {
                        continue;
                    }
                    for pat in ALLOC_PATTERNS {
                        if file.model.lines[i].code.contains(pat)
                            && !resolved_alloc_call(pat, i, f, &cg.call_targets[id])
                        {
                            found
                                .entry((node.path.clone(), i, "EL021"))
                                .or_insert_with(|| {
                                    format!(
                                        "`{}` inside a worker chunk body — the hot \
                                         path must not allocate; hoist it or waive \
                                         with `// alloc-ok: <reason>`",
                                        pat.trim_end_matches('(')
                                    )
                                });
                            break;
                        }
                    }
                }
            }
        }
        // Blocking calls on the closure's own lines.
        for b in &f.blocking_sites {
            if f.in_worker(b.tok) && !waived(&file.model, b.line, "block-ok:") {
                found
                    .entry((node.path.clone(), b.line, "EL050"))
                    .or_insert_with(|| {
                        format!(
                            "blocking `{}` inside a worker chunk body — workers \
                             must stay lock- and wait-free; waive with \
                             `// block-ok: <reason>`",
                            b.what
                        )
                    });
            }
        }
        // Calls leaving the closure seed the hop-k pass.
        for (call_idx, target) in &cg.call_targets[id] {
            let call = &f.calls[*call_idx];
            if f.in_worker(call.tok) && !roots.contains(target) {
                roots.push(*target);
                entered_from
                    .entry(*target)
                    .or_insert((node.path.clone(), call.line + 1));
            }
        }
    }

    // --- hop-k pass: functions reachable from the closures ----------------
    // The roots themselves are hop-0 "reached" functions; cg.reachable
    // returns everything further out.
    let mut reached: Vec<(FnId, usize, FnId)> = roots.iter().map(|&r| (r, 0, r)).collect();
    reached.extend(cg.reachable(&roots, HOT_HOPS - 1));
    // `reachable` returns nodes in hop order, so each node's `via` is
    // already mapped by the time it appears: the entry root propagates
    // forward along shortest paths.
    let mut origin: BTreeMap<FnId, FnId> = BTreeMap::new();
    for &(id, hops, via) in &reached {
        let o = if hops == 0 { id } else { origin[&via] };
        origin.insert(id, o);
    }
    for (id, hops, _via) in reached {
        let node = &cg.fns[id];
        if node.is_test {
            continue;
        }
        let file = &files[node.file];
        let f = &file.syn.fns[node.fn_idx];
        let (root_path, root_line) = entered_from
            .get(&origin[&id])
            .cloned()
            .unwrap_or_else(|| (node.path.clone(), f.decl_line + 1));
        let provenance = format!(
            "{} call hop(s) from the worker chunk body at {}:{}",
            hops + 1,
            root_path,
            root_line
        );
        if !HOT_PATH_MODULES.contains(&node.path.as_str()) {
            let (a, b) = f.line_span;
            for i in a..=b.min(file.model.lines.len().saturating_sub(1)) {
                if file.model.in_test[i] || waived(&file.model, i, "alloc-ok:") {
                    continue;
                }
                for pat in ALLOC_PATTERNS {
                    if file.model.lines[i].code.contains(pat)
                        && !resolved_alloc_call(pat, i, f, &cg.call_targets[id])
                    {
                        found
                            .entry((node.path.clone(), i, "EL021"))
                            .or_insert_with(|| {
                                format!(
                                    "`{}` in `fn {}`, {} — the hot path must not \
                                     allocate; hoist it or waive with \
                                     `// alloc-ok: <reason>`",
                                    pat.trim_end_matches('('),
                                    node.name,
                                    provenance
                                )
                            });
                        break;
                    }
                }
            }
        }
        for bsite in &f.blocking_sites {
            if !waived(&file.model, bsite.line, "block-ok:") {
                found
                    .entry((node.path.clone(), bsite.line, "EL050"))
                    .or_insert_with(|| {
                        format!(
                            "blocking `{}` in `fn {}`, {} — workers must stay \
                             lock- and wait-free; waive with `// block-ok: <reason>`",
                            bsite.what, node.name, provenance
                        )
                    });
            }
        }
    }

    for ((path, line, rule), msg) in found {
        out.push(diag(&path, line, rule, msg));
    }
}

/// EL031: lease lifecycle. Flow-insensitive per function, with escaping
/// leases tracked one level up the call graph.
pub fn check_lease_lifecycle(files: &[WsFile], cg: &CallGraph, out: &mut Vec<Diagnostic>) {
    for (id, node) in cg.fns.iter().enumerate() {
        if node.is_test {
            continue;
        }
        let file = &files[node.file];
        let f = &file.syn.fns[node.fn_idx];
        for (fam, (acq_name, rel_name)) in LEASE_FAMILIES.iter().enumerate() {
            let acquires: Vec<_> = f
                .lease_sites
                .iter()
                .filter(|l| l.family == fam && l.is_acquire)
                .collect();
            if acquires.is_empty() {
                continue;
            }
            let releases = f
                .lease_sites
                .iter()
                .any(|l| l.family == fam && !l.is_acquire);
            if releases {
                continue; // flow-insensitively balanced
            }
            // Leaks: acquires that neither escape nor get released here.
            for a in acquires.iter().filter(|a| !a.escapes) {
                if waived(&file.model, a.line, "lease-ok:") {
                    continue;
                }
                out.push(diag(
                    &node.path,
                    a.line,
                    "EL031",
                    format!(
                        "`{}` lease checked out in `fn {}` is neither `{}`d nor \
                         returned to the caller on this path — the pool slot \
                         leaks; waive a deliberate handoff with \
                         `// lease-ok: <reason>`",
                        acq_name, node.name, rel_name
                    ),
                ));
            }
            // Sources: every acquire escapes, so the obligation moves to
            // the callers — one level up, per the documented model. A
            // wrapper *named* like the acquire is covered by the callers'
            // own name-based lease sites; tracking it here would double-
            // report the same line.
            if !acquires.iter().all(|a| a.escapes) || node.name == *acq_name {
                continue;
            }
            for &caller in &cg.callers[id] {
                let cnode = &cg.fns[caller];
                if cnode.is_test {
                    continue;
                }
                let cfile = &files[cnode.file];
                let cf = &cfile.syn.fns[cnode.fn_idx];
                if cf
                    .lease_sites
                    .iter()
                    .any(|l| l.family == fam && !l.is_acquire)
                {
                    continue; // caller recycles
                }
                for (call_idx, target) in &cg.call_targets[caller] {
                    if *target != id {
                        continue;
                    }
                    let call = &cf.calls[*call_idx];
                    if call.escapes || waived(&cfile.model, call.line, "lease-ok:") {
                        continue; // handed further up / waived
                    }
                    out.push(diag(
                        &cnode.path,
                        call.line,
                        "EL031",
                        format!(
                            "`fn {}` returns a `{}` lease, and this caller \
                             neither `{}`s it nor returns it onward — the pool \
                             slot leaks; waive a deliberate handoff with \
                             `// lease-ok: <reason>`",
                            node.name, acq_name, rel_name
                        ),
                    ));
                }
            }
        }
    }
}
