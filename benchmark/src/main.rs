//! The repository's benchmark: four workloads, end-to-end metrics with
//! pinned regression bounds, and per-layer attribution recorded from outside
//! the program. `README.md` beside this package says what each workload and
//! metric is for; `BENCHMARK.json` at the repository root is the contract.

mod compare;
mod entry;
mod json;
mod phases;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod workload;

use json::Json;
use report::{Provenance, SCHEMA};
use spec::Spec;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::{ScratchFile, Workload, WORKLOADS};

const USAGE: &str = "\
usage: benchmark --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
                 [--sets K] [--smoke] [--out FILE]
       benchmark --compare BASE.json [CANDIDATE.json]

  --workload  rmat-analytics | grid-traversal | rmat-compressed | serve-mix | all
  --seed      input seed: graph, BFS sources and request cycle together (default 1)
  --seconds   measured time per run (default: run_seconds of BENCHMARK.json)
  --trace     one workload: 1 runs the traced pass instead of the timed one;
              all: run the traced pass after each timed pass
  --sets      repeat everything K times (each run in its own process)
  --smoke     tiny inputs and 2 s of measuring: checks the benchmark, measures nothing
  --out       write the run records (and, traced, FILE.<workload>.spans.jsonl)
  --compare   judge CANDIDATE against BASE by the bounds of BENCHMARK.json;
              with one file, its second half of sets against its first half";

struct Cli {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
    set: usize,
    smoke: bool,
    /// Internal: this process is a helper of a timed pass; the path is the
    /// hand-off file its parent wrote.
    helper: Option<PathBuf>,
    out: Option<PathBuf>,
    compare: Option<(String, Option<String>)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: workload::DEFAULT_SEED,
        seconds: None,
        trace: false,
        sets: 1,
        set: 1,
        smoke: false,
        helper: None,
        out: None,
        compare: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, s: String) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: cannot read '{s}'"))
    }
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => cli.workload = value(&mut i, flag)?,
            "--seed" => cli.seed = number(flag, value(&mut i, flag)?)?,
            "--seconds" => cli.seconds = Some(number(flag, value(&mut i, flag)?)?),
            "--sets" => cli.sets = number(flag, value(&mut i, flag)?)?,
            "--set" => cli.set = number(flag, value(&mut i, flag)?)?,
            "--out" => cli.out = Some(value(&mut i, flag)?.into()),
            "--smoke" => cli.smoke = true,
            "--helper" => cli.helper = Some(value(&mut i, flag)?.into()),
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    cli.trace = true;
                    i += 1
                }
                _ => cli.trace = true,
            },
            "--compare" => {
                let base = value(&mut i, flag)?;
                let candidate = args.get(i + 1).filter(|a| !a.starts_with("--")).cloned();
                i += candidate.is_some() as usize;
                cli.compare = Some((base, candidate));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if cli.compare.is_none() && cli.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if cli.sets == 0 || cli.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--sets and --seconds must be positive".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let outcome = match &cli.compare {
        Some((base, candidate)) => compare::compare(&spec, base, candidate.as_deref()),
        None => match workload::find(&cli.workload) {
            Some(w) if cli.helper.is_some() => {
                let handoff = cli.helper.as_deref().expect("checked by the guard");
                run::helper(&options(&spec, &cli, w), handoff).map(|()| true)
            }
            Some(w) if cli.sets == 1 => one_run(&spec, &cli, w),
            Some(w) => many_runs(&spec, &cli, &[*w]),
            None if cli.workload == "all" => many_runs(&spec, &cli, &WORKLOADS),
            None => Err(format!("unknown workload '{}'", cli.workload)),
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn seconds(spec: &Spec, cli: &Cli) -> f64 {
    cli.seconds
        .unwrap_or(if cli.smoke { 2.0 } else { spec.run_seconds })
}

fn document(runs: Vec<Json>) -> Json {
    Json::obj([("schema", Json::str(SCHEMA)), ("runs", Json::Arr(runs))])
}

fn write_out(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `FILE.<workload>.spans.jsonl` beside `--out FILE`.
fn spans_path(out: &std::path::Path, w: &Workload) -> PathBuf {
    let mut name = out.as_os_str().to_owned();
    name.push(format!(".{}.spans.jsonl", w.name));
    PathBuf::from(name)
}

fn options(spec: &Spec, cli: &Cli, w: &'static Workload) -> run::Options {
    run::Options {
        workload: w,
        seed: cli.seed,
        seconds: seconds(spec, cli),
        trace: cli.trace,
        smoke: cli.smoke,
        spans_out: cli
            .out
            .as_ref()
            .filter(|_| cli.trace)
            .map(|out| spans_path(out, w)),
    }
}

/// One workload, one pass, in this process.
fn one_run(spec: &Spec, cli: &Cli, w: &'static Workload) -> Result<bool, String> {
    let record = run::run(spec, &options(spec, cli, w))?;
    let prov = Provenance::collect();
    report::print_record(spec, &prov, &record);
    if let Some(out) = &cli.out {
        write_out(
            out,
            &document(vec![report::record_json(spec, &prov, &record, cli.set)]),
        )?;
    }
    println!("{}", report::result_line(spec, &record));
    Ok(record.correct())
}

/// Several workloads or sets: each run in a child process of this same
/// executable, so memory high-water marks do not leak from one run into
/// the next. Children are waited for one at a time.
fn many_runs(spec: &Spec, cli: &Cli, workloads: &[Workload]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let passes: &[bool] = if cli.trace && workloads.len() > 1 {
        &[false, true]
    } else if cli.trace {
        &[true]
    } else {
        &[false]
    };
    let mut runs = Vec::new();
    let (mut attempted, mut failed, mut all_ok) = (0.0, 0.0, true);
    for set in 1..=cli.sets {
        for w in workloads {
            for &traced in passes {
                let tmp = ScratchFile::new("json")?;
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", w.name, "--seed", &cli.seed.to_string()])
                    .args(["--seconds", &seconds(spec, cli).to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .args(["--set", &set.to_string()])
                    .arg("--out")
                    .arg(&tmp.path);
                if cli.smoke {
                    child.arg("--smoke");
                }
                let status = child
                    .status()
                    .map_err(|e| format!("starting {}: {e}", w.name))?;
                all_ok &= status.success();
                let Ok(text) = std::fs::read_to_string(&tmp.path) else {
                    continue;
                };
                let doc = Json::parse(&text)?;
                for r in doc.get("runs").map(Json::as_arr).unwrap_or_default() {
                    attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
                    failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                    // The child's spans sit in scratch beside its record:
                    // they go next to --out, or nowhere.
                    if let Some(from) = r.get("spans_file").and_then(Json::as_str) {
                        if let Some(out) = &cli.out {
                            std::fs::copy(from, spans_path(out, w))
                                .map_err(|e| format!("copying {from}: {e}"))?;
                        }
                        let _ = std::fs::remove_file(from);
                    }
                    runs.push(r.clone());
                }
            }
        }
    }
    if let Some(out) = &cli.out {
        write_out(out, &document(runs))?;
        if cli.sets >= 2 {
            println!("\n# two-set check: second half of the sets against the first");
            all_ok &= compare::compare(spec, &out.display().to_string(), None)?;
        }
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(all_ok)),
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("metrics", Json::obj::<String>([])),
        ])
        .render()
    );
    Ok(all_ok)
}
