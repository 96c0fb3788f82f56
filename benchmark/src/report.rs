//! What a run prints: a provenance header, a table of every listed metric,
//! the full record as JSON for `--out`, and the one-line result the driver
//! reads from the end of standard output.

use crate::json::Json;
use crate::run::{listed_metrics, Record};
use crate::spec::Spec;
use std::process::Command;

/// Bumped only by an issue that changes the benchmark itself.
pub const SCHEMA: &str = "essentials-benchmark/1";

/// Where and with what the numbers were taken.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub host: String,
    pub commit: String,
    pub rustc: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Provenance {
            host,
            commit: first_line("git", &["rev-parse", "--short=12", "HEAD"]),
            rustc: first_line("rustc", &["-V"]),
        }
    }
}

/// First line a command prints, or "unknown": a checkout need not be a git
/// repository.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn record_json(spec: &Spec, prov: &Provenance, r: &Record, set: usize) -> Json {
    let metrics = listed_metrics(spec, r)
        .into_iter()
        .map(|(m, s)| (m.name.clone(), s.to_json(&m.unit)));
    let counts = r.counts.iter().map(|(k, c)| {
        (
            k.clone(),
            Json::obj([
                ("value", Json::Num(c.value as f64)),
                ("stable_within_run", Json::Bool(c.stable)),
            ]),
        )
    });
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("set", Json::Num(set as f64)),
        ("workload", Json::str(r.workload)),
        ("trace", Json::Bool(r.trace)),
        ("smoke", Json::Bool(r.smoke)),
        ("seed", Json::Num(r.seed as f64)),
        ("seconds", Json::Num(r.seconds)),
        ("host", Json::str(&prov.host)),
        ("nproc", Json::Num(r.nproc as f64)),
        ("threads", Json::Num(r.threads as f64)),
        ("degraded_host", Json::Bool(r.nproc < 2)),
        ("commit", Json::str(&prov.commit)),
        ("rustc", Json::str(&prov.rustc)),
        (
            "input",
            Json::obj([
                ("n", Json::Num(r.input.n as f64)),
                ("m", Json::Num(r.input.m as f64)),
                ("hash", Json::str(format!("{:#018x}", r.input.hash))),
                ("pinned", Json::str(&r.input.pinned)),
            ]),
        ),
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.tally.attempted as f64)),
        ("failed", Json::Num(r.tally.failed as f64)),
        (
            "fail_share",
            Json::Num(r.tally.failed as f64 / r.tally.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Arr(r.tally.notes.iter().map(Json::str).collect()),
        ),
        ("metrics", Json::Obj(metrics.collect())),
        ("counts", Json::Obj(counts.collect())),
        (
            "spans_file",
            r.spans_file
                .as_ref()
                .map_or(Json::Null, |p| Json::str(p.display().to_string())),
        ),
    ])
}

/// The human-readable report.
pub fn print_record(spec: &Spec, prov: &Provenance, r: &Record) {
    println!(
        "# {SCHEMA}  workload={}  pass={}{}  seed={}  seconds={}",
        r.workload,
        if r.trace { "traced" } else { "timed" },
        if r.smoke { " (smoke)" } else { "" },
        r.seed,
        r.seconds
    );
    println!(
        "# host={}  nproc={}  threads={}{}  commit={}  {}",
        prov.host,
        r.nproc,
        r.threads,
        if r.nproc < 2 { "  DEGRADED_HOST" } else { "" },
        prov.commit,
        prov.rustc
    );
    println!(
        "# input n={} m={} hash={:#018x} pinned={}",
        r.input.n, r.input.m, r.input.hash, r.input.pinned
    );
    println!(
        "{:<38} {:>14} {:<8} {:>6} {:>14} {:>14}",
        "metric", "median", "unit", "n", "q1", "q3"
    );
    for (m, s) in listed_metrics(spec, r) {
        println!(
            "{:<38} {:>14.6} {:<8} {:>6} {:>14.6} {:>14.6}",
            m.name, s.median, m.unit, s.n, s.q1, s.q3
        );
    }
    for (name, c) in r.counts.iter().filter(|(_, c)| !c.stable) {
        println!(
            "# count {name} = {} varied between rounds of this run",
            c.value
        );
    }
    println!(
        "# operations attempted={} failed={} fail_share={}",
        r.tally.attempted,
        r.tally.failed,
        r.tally.failed as f64 / r.tally.attempted.max(1) as f64
    );
    for note in &r.tally.notes {
        println!("# FAILED: {note}");
    }
    if let Some(p) = &r.spans_file {
        println!("# spans written to {}", p.display());
    }
}

/// The last line of standard output: exactly the keys the driver expects.
pub fn result_line(spec: &Spec, r: &Record) -> String {
    let metrics = listed_metrics(spec, r).into_iter().map(|(m, s)| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(s.median)), ("unit", Json::str(&m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(r.correct())),
        ("attempted", Json::Num(r.tally.attempted as f64)),
        ("failed", Json::Num(r.tally.failed as f64)),
        ("metrics", Json::Obj(metrics.collect())),
    ])
    .render()
}
