//! The known-bad fixture corpus: every rule must fire, with stable
//! diagnostics (exact file, line, rule id), and waived/clean/decoy lines
//! must stay silent. `tests/fixtures/ws` is a miniature multi-crate
//! workspace with its own per-field `LINT_ORDERINGS.toml` and seeded
//! violations for every rule, including the interprocedural ones.

use std::path::{Path, PathBuf};

use essentials_lint::run_root;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn every_rule_fires_with_stable_diagnostics() {
    let report = run_root(&fixture_root()).expect("fixture corpus must lint");
    let got: Vec<String> = report
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}: {}", d.path, d.line, d.rule))
        .collect();
    let want = [
        "LINT_ORDERINGS.toml:11: EL012",       // src/gone.rs is not a file
        "LINT_ORDERINGS.toml:17: EL012",       // Acquire allowed but unused
        "LINT_ORDERINGS.toml:30: EL013",       // Relaxed-only `ticks` entry, no barrier
        "crates/algos/src/cc.rs:7: EL014",     // shared counter in an advance closure
        "crates/core/src/hot.rs:17: EL021",    // push two hops from the worker body
        "crates/core/src/hot.rs:26: EL050",    // lock inside the worker body
        "crates/core/src/hot.rs:44: EL050",    // lock inside a chunk-window body
        "crates/core/src/hot.rs:45: EL021",    // Vec::new inside a chunk-window body
        "crates/core/src/leases.rs:15: EL031", // lease neither recycled nor escaping
        "crates/core/src/leases.rs:25: EL031", // caller drops the source's lease
        "crates/core/src/operators/advance.rs:4: EL020", // Vec::new in a hot path
        // Shared counter in a closure of the advance family's own module,
        // then a captured frontier's counted insert.
        "crates/core/src/operators/direction.rs:8: EL014",
        "crates/core/src/operators/direction.rs:11: EL014",
        "crates/core/src/publish.rs:7: EL013", // Release store, no Acquire reader
        "crates/io/src/unwrap.rs:6: EL040",    // naked unwrap
        "crates/io/src/unwrap.rs:10: EL040",   // naked expect
        "crates/parallel/src/no_safety.rs:4: EL001", // unsafe without SAFETY
        "src/bad_ordering.rs:10: EL011",       // SeqCst outside the set
        "src/stray_unsafe.rs:6: EL002",        // unsafe outside allowlist
        "src/unpaired.rs:13: EL030",           // take without put
        "src/unpaired.rs:23: EL030",           // put without take
        "src/untracked.rs:6: EL010",           // atomics, no table entry
    ];
    assert_eq!(
        got,
        want,
        "full diagnostics:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn waived_and_annotated_lines_stay_silent() {
    let report = run_root(&fixture_root()).expect("fixture corpus must lint");
    let diags = &report.diagnostics;
    // The `alloc-ok:` waiver on advance.rs line 5 suppresses the push.
    assert!(
        !diags
            .iter()
            .any(|d| d.path.ends_with("advance.rs") && d.line == 5),
        "waived line was flagged"
    );
    // The SAFETY-annotated unsafe in stray_unsafe.rs triggers EL002 only.
    assert!(
        !diags
            .iter()
            .any(|d| d.path.ends_with("stray_unsafe.rs") && d.rule == "EL001"),
        "annotated unsafe was flagged for EL001"
    );
    // The decoy file (rule keywords in comments and strings) is clean.
    assert!(
        !diags.iter().any(|d| d.path.ends_with("clean.rs")),
        "decoy comments/strings fooled the lexer"
    );
    // The balanced take/put function is not an EL030.
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.path.ends_with("unpaired.rs"))
            .count(),
        2,
        "only the two seeded pairing violations may fire"
    );
    // hot.rs decoys: the `block-ok:`-waived lock (line 34) and the lock
    // outside the worker closure (line 29) must both stay silent.
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.path.ends_with("hot.rs"))
            .map(|d| d.line)
            .collect::<Vec<_>>(),
        vec![17, 26, 44, 45],
        "hot.rs may fire only at the four seeded lines"
    );
    // EL014 decoys: the waived detail counter in direction.rs, and in
    // cc.rs the per-chunk local with one trailing add, the closure-local
    // counter, the per-vertex cell and the add after the advance returns.
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.rule == "EL014")
            .map(|d| format!("{}:{}", d.path, d.line))
            .collect::<Vec<_>>(),
        vec![
            "crates/algos/src/cc.rs:7",
            "crates/core/src/operators/direction.rs:8",
            "crates/core/src/operators/direction.rs:11"
        ],
        "EL014 may fire only at the three seeded lines"
    );
    // leases.rs decoys: the forwarder (lease returned onward, line 30) and
    // the balanced pair must stay silent.
    assert_eq!(
        diags
            .iter()
            .filter(|d| d.path.ends_with("leases.rs"))
            .map(|d| d.line)
            .collect::<Vec<_>>(),
        vec![15, 25],
        "leases.rs may fire only at the two seeded lines"
    );
}

#[test]
fn messages_carry_the_fix_hint() {
    let report = run_root(&fixture_root()).expect("fixture corpus must lint");
    let find = |rule: &str| {
        report
            .diagnostics
            .iter()
            .find(|d| d.rule == rule)
            .unwrap_or_else(|| panic!("{rule} missing"))
    };
    assert!(find("EL001").msg.contains("SAFETY"));
    assert!(find("EL002").msg.contains("UNSAFE_ALLOWLIST"));
    assert!(find("EL010").msg.contains("LINT_ORDERINGS.toml"));
    assert!(find("EL011").msg.contains("allowed set"));
    assert!(find("EL012").msg.contains("stale"));
    assert!(find("EL014").msg.contains("rmw-ok"));
    assert!(find("EL020").msg.contains("alloc-ok"));
    assert!(find("EL021").msg.contains("alloc-ok"));
    assert!(find("EL030").msg.contains("take_scratch"));
    assert!(find("EL031").msg.contains("lease-ok"));
    assert!(find("EL040").msg.contains("unwrap-ok"));
    assert!(find("EL050").msg.contains("block-ok"));
    // Interprocedural findings carry their provenance: how many hops, and
    // from which worker chunk body.
    let el021 = find("EL021");
    assert!(
        el021.msg.contains("2 call hop(s)") && el021.msg.contains("crates/core/src/hot.rs:27"),
        "EL021 lost its provenance: {}",
        el021.msg
    );
}

#[test]
fn unresolved_edges_are_reported_not_dropped() {
    let report = run_root(&fixture_root()).expect("fixture corpus must lint");
    // Exactly the two seeded unresolvable calls: the trait-object dispatch
    // (a unique impl exists — it must STILL not be resolved) and the
    // ambiguous bare name defined in two crates.
    let got: Vec<String> = report
        .unresolved
        .iter()
        .map(|u| format!("{}:{}: {} ({})", u.path, u.line, u.callee, u.reason))
        .collect();
    assert_eq!(
        got,
        [
            "crates/core/src/dispatch.rs:15: emit (trait-dispatch(dyn Sink))",
            "crates/core/src/dispatch.rs:19: twin (ambiguous(2))",
        ],
        "unresolved-edge report drifted"
    );
    assert_eq!(report.stats.unresolved_calls, 2);
    assert!(
        report.stats.resolved_calls > 0,
        "resolver resolved nothing — the call graph is empty"
    );
    // Distinct (path, field) atomic keys: `c` in three files + `flag` and
    // `ticks` in publish.rs.
    assert_eq!(report.stats.atomic_fields, 5);
    assert_eq!(report.stats.files, 16, "fixture file count drifted");
}

#[test]
fn json_artifact_is_well_formed_and_complete() {
    let report = run_root(&fixture_root()).expect("fixture corpus must lint");
    let json = essentials_lint::report_to_json(&report);
    // Hand-rolled writer: sanity-check the shape without a JSON parser.
    assert!(json.starts_with("{\n"));
    assert!(json.trim_end().ends_with('}'));
    assert!(json.contains("\"diagnostics\""));
    assert!(json.contains("\"unresolved_calls\""));
    assert!(json.contains("\"stats\""));
    assert!(json.contains("\"trait-dispatch(dyn Sink)\""));
    // Every diagnostic's rule id appears.
    for d in &report.diagnostics {
        assert!(json.contains(d.rule), "rule {} missing from JSON", d.rule);
    }
    assert_eq!(
        json.matches("\"rule\"").count(),
        report.diagnostics.len(),
        "one rule key per diagnostic"
    );
}
