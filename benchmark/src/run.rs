//! One run of one workload: either the timed pass (end-to-end metrics, no
//! sink installed anywhere) or the traced pass (per-layer metrics, from
//! spans, probes and a one-thread rerun). Never both in one process, so
//! `peak_rss_mb` belongs to the timed pass alone.

use crate::entry::{self, Algo, Rep};
use crate::json::Json;
use crate::phases::{
    check_direct, check_served, direct_phase, engine_phase, Direct, Expected, Load, Request,
    Served, Stop, Tally, SOURCES,
};
use crate::spec::Spec;
use crate::stats::{self, Summary};
use crate::trace::{self, SpanSink};
use crate::workload::{self, identify, InputId, Inputs, SetupTimes, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced pass writes its spans; a scratch file by default.
    pub spans_out: Option<PathBuf>,
}

/// A count that should repeat bit-for-bit, and whether it did within the run
/// (its untraced, traced and one-thread passes agreed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Count {
    pub value: u64,
    pub stable: bool,
}

/// Everything one run reports.
pub struct Record {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub threads: usize,
    pub nproc: usize,
    pub input: InputId,
    pub tally: Tally,
    pub metrics: BTreeMap<String, Summary>,
    /// Per-layer counts that should repeat bit-for-bit (traced pass only).
    pub counts: BTreeMap<String, Count>,
    pub spans_file: Option<PathBuf>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && !self.input.is_mismatch()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pool threads: two, or one on a one-core host (which the report marks as
/// degraded). Never more than the cores measured on.
pub fn threads() -> usize {
    nproc().min(2)
}

struct Prepared {
    inputs: Inputs,
    input: InputId,
    sources: Vec<u32>,
    degrees: Vec<usize>,
    expected: Expected,
}

fn prepare(o: &Options, inputs: Inputs) -> Prepared {
    let g = &inputs.graph;
    let degrees = entry::degrees(g);
    let sources = workload::pick_sources(g, &degrees, o.seed, SOURCES);
    Prepared {
        input: identify(shape(o), o.seed, g),
        expected: Expected::from_oracles(g, &sources),
        sources,
        degrees,
        inputs,
    }
}

fn shape(o: &Options) -> entry::Shape {
    if o.smoke {
        o.workload.smoke_shape
    } else {
        o.workload.shape
    }
}

pub fn run(spec: &Spec, o: &Options) -> Result<Record, String> {
    for var in entry::FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; it overrides the thread count or pinning this benchmark records. Unset it."
            ));
        }
    }
    let mut record = if o.trace {
        traced_pass(o)?
    } else {
        timed_pass(o)?
    };
    // A listed metric the run did not produce (or produced as NaN: no
    // samples) is a failed operation, not a gap in the output.
    let missing: Vec<String> = listed_metrics(spec, &record)
        .into_iter()
        .filter(|(_, s)| !s.median.is_finite())
        .map(|(m, _)| m.name.clone())
        .collect();
    for name in missing {
        record
            .tally
            .op(false, || format!("metric {name} was not measured"));
    }
    Ok(record)
}

fn secs(x: f64) -> Duration {
    Duration::from_secs_f64(x.max(0.0))
}

fn timed_pass(o: &Options) -> Result<Record, String> {
    let w = o.workload;
    let threads = threads();
    let inputs = workload::setup(shape(o), o.seed, w.mapped, threads, None)?;
    let mut setups = vec![inputs.times.total_s];
    let p = prepare(o, inputs);
    let mut tally = Tally::default();

    // Helper processes, one at a time, before anything is timed here. Each
    // repeats the set-up from a fresh heap (as a user's process would, and
    // so that this process's memory high-water mark stays that of one
    // set-up plus the measured phases) and runs its slice of the direct
    // phase. The slices are pooled because the two-thread SSSP and CC runs
    // settle into a different regime in every process (a factor of 1.4
    // between two processes alternating on the same cores, see README):
    // one process's median is one draw from that, four are steadier.
    let helpers = if o.smoke { 1 } else { HELPERS };
    let slice = o.seconds * w.direct_share / (helpers + 1) as f64;
    let mut helped: [Vec<f64>; 4] = Default::default();
    for _ in 0..helpers {
        let part = direct_in_helper(o, &p, slice)?;
        setups.push(part.setup_s);
        for (all, ms) in helped.iter_mut().zip(part.ms) {
            all.extend(ms);
        }
        tally.merge(part.tally);
    }

    let g = &*p.inputs.graph;
    let ctx = entry::context(threads, None);
    let direct = direct_slice(&p.inputs, &ctx, &p.sources, &p.expected, slice, &mut tally);
    // One untimed request of each kind per client fills both engine slots.
    let engine = &p.inputs.engine;
    engine_phase(
        engine,
        &p.degrees,
        o.seed,
        Load::OneOfEach,
        None,
        &mut tally,
    );
    let load = Load::For(secs(o.seconds * (1.0 - w.direct_share)));
    let served = engine_phase(engine, &p.degrees, o.seed, load, None, &mut tally);
    let peak_rss_mb = peak_rss_mb();

    check_direct(g, &ctx, &direct, w.mapped, &mut tally);
    check_served(g, &served, &mut tally);

    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, s: Summary| {
        metrics.insert(name.to_string(), s);
    };
    put("setup_s", Summary::of(&setups));
    for (mine, theirs) in helped.iter_mut().zip(&direct.ms) {
        mine.extend(theirs);
    }
    for algo in Algo::ALL {
        put(
            &format!("{}_ms", algo.name()),
            Summary::of(&helped[algo as usize]),
        );
    }
    put(
        "suite_mteps",
        Summary::single(suite_mteps(&helped, p.input.m)),
    );
    put("peak_rss_mb", Summary::single(peak_rss_mb));
    put(
        "serve_rps",
        Summary::single(served.completed() as f64 / served.wall_s),
    );
    put(
        "light_p50_ms",
        Summary::of(&served.ms[Request::Light as usize]),
    );
    put(
        "batch_p50_ms",
        Summary::of(&served.ms[Request::Batch as usize]),
    );
    put(
        "heavy_p50_ms",
        Summary::of(&served.ms[Request::Heavy as usize]),
    );

    Ok(Record {
        workload: w.name,
        seed: o.seed,
        seconds: o.seconds,
        trace: false,
        smoke: o.smoke,
        threads,
        nproc: nproc(),
        input: p.input,
        tally,
        metrics,
        counts: BTreeMap::new(),
        spans_file: None,
    })
}

/// Helper processes per timed pass (see `timed_pass`).
const HELPERS: usize = 3;

/// What a helper process reports back.
struct Part {
    setup_s: f64,
    ms: [Vec<f64>; 4],
    tally: Tally,
}

/// The algorithms whose times are bounded, and so the ones the suite rate
/// is made of, with their runs per round. SSSP is left out: on the grid it
/// is four fifths of a round, and the rate would be `algos.sssp.ms` under
/// another name, with its spread.
const SUITE: [(Algo, f64); 3] = [
    (Algo::Bfs, SOURCES as f64),
    (Algo::Cc, 1.0),
    (Algo::Pagerank, 1.0),
];

/// Graph500-style rate of one median round: input edges times the runs of a
/// round, over the time those runs take at each algorithm's median. Input
/// edges, not edges inspected, so doing less work raises it. From medians
/// rather than from total time, so a slow stretch of one helper process does
/// not carry the whole number.
fn suite_mteps(ms: &[Vec<f64>; 4], m: usize) -> f64 {
    let runs: f64 = SUITE.iter().map(|&(_, per_round)| per_round).sum();
    let seconds: f64 = SUITE
        .iter()
        .map(|&(a, per_round)| per_round * stats::median(&ms[a as usize]) / 1e3)
        .sum();
    m as f64 * runs / seconds / 1e6
}

/// One process's share of the direct phase, over the representation the
/// workload's set-up produced: an untimed round to fill the context's
/// scratch pools, then rounds for `seconds`.
fn direct_slice(
    inputs: &Inputs,
    ctx: &entry::Context,
    sources: &[u32],
    expected: &Expected,
    seconds: f64,
    tally: &mut Tally,
) -> Direct {
    let view = inputs.container.as_ref().map(entry::view);
    let rep = match &view {
        Some(v) => Rep::Mapped(v),
        None => Rep::Raw(&inputs.graph),
    };
    direct_phase(rep, ctx, sources, expected, Stop::Rounds(1), None, tally);
    let stop = Stop::After {
        time: secs(seconds),
        min_rounds: 3,
    };
    direct_phase(rep, ctx, sources, expected, stop, None, tally)
}

/// The helper's side: set up, take sources and oracle checksums from the
/// hand-off file, warm up, run the direct phase for `o.seconds`, print one
/// JSON line.
pub fn helper(o: &Options, handoff: &std::path::Path) -> Result<(), String> {
    let w = o.workload;
    let inputs = workload::setup(shape(o), o.seed, w.mapped, threads(), None)?;
    let text = std::fs::read_to_string(handoff).map_err(|e| format!("reading hand-off: {e}"))?;
    let doc = Json::parse(&text)?;
    let sources: Vec<u32> = doc
        .get("sources")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|s| s.as_f64().map(|x| x as u32))
        .collect();
    let expected = doc
        .get("expected")
        .and_then(Expected::from_json)
        .filter(|e| {
            !sources.is_empty() && e.bfs.len() == sources.len() && e.sssp.len() == sources.len()
        })
        .ok_or("malformed hand-off file")?;
    let ctx = entry::context(threads(), None);
    let mut tally = Tally::default();
    let direct = direct_slice(&inputs, &ctx, &sources, &expected, o.seconds, &mut tally);
    let nums = |v: &Vec<f64>| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let line = Json::obj([
        ("setup_s", Json::Num(inputs.times.total_s)),
        ("ms", Json::Arr(direct.ms.iter().map(nums).collect())),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "notes",
            Json::Arr(tally.notes.iter().map(Json::str).collect()),
        ),
    ]);
    println!("{}", line.render());
    Ok(())
}

/// The parent's side: write the hand-off, run one helper, wait for it, read
/// its line.
fn direct_in_helper(o: &Options, p: &Prepared, seconds: f64) -> Result<Part, String> {
    let handoff = workload::ScratchFile::new("handoff.json")?;
    let doc = Json::obj([
        (
            "sources",
            Json::Arr(p.sources.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        ("expected", p.expected.to_json()),
    ]);
    std::fs::write(&handoff.path, doc.render()).map_err(|e| format!("writing hand-off: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child.arg("--helper").arg(&handoff.path);
    child.args(["--workload", o.workload.name, "--seed", &o.seed.to_string()]);
    child.args(["--seconds", &seconds.to_string()]);
    if o.smoke {
        child.arg("--smoke");
    }
    let out = child
        .output()
        .map_err(|e| format!("starting helper process: {e}"))?;
    let broken = || {
        format!(
            "helper process failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(stdout.trim()).map_err(|_| broken())?;
    let num = |key: &str| doc.get(key).and_then(Json::as_f64).ok_or_else(broken);
    let mut part = Part {
        setup_s: num("setup_s")?,
        ms: Default::default(),
        tally: Tally {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            notes: doc
                .get("notes")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
        },
    };
    for (into, from) in part
        .ms
        .iter_mut()
        .zip(doc.get("ms").map(Json::as_arr).unwrap_or_default())
    {
        into.extend(from.as_arr().iter().filter_map(Json::as_f64));
    }
    Ok(part)
}

/// `VmHWM`: the most physical memory the process has held so far, set-up
/// included.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The per-layer metrics and exact counts of a traced pass.
#[derive(Default)]
struct Layers {
    metrics: BTreeMap<String, Summary>,
    counts: BTreeMap<String, Count>,
}

impl Layers {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics
            .insert(name.to_string(), Summary::single(value));
    }

    /// A count that should repeat bit-for-bit, and whether it did within
    /// this run.
    fn count(&mut self, name: &str, value: u64, stable: bool) {
        self.counts
            .insert(name.to_string(), Count { value, stable });
        self.put(name, value as f64);
    }
}

fn traced_pass(o: &Options) -> Result<Record, String> {
    let w = o.workload;
    let threads = threads();
    let rounds = if o.smoke { 2 } else { 3 };
    let sink = Arc::new(SpanSink::new());
    // Always with the container: every workload reports the codec and io
    // layers, whichever representation its direct phase uses.
    let inputs = workload::setup(shape(o), o.seed, true, threads, Some(sink.clone()))?;
    let p = prepare(o, inputs);
    let g = &*p.inputs.graph;
    let view = entry::view(
        p.inputs
            .container
            .as_ref()
            .expect("set up with a container"),
    );
    let rep = if w.mapped {
        Rep::Mapped(&view)
    } else {
        Rep::Raw(g)
    };
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    layer_setup(&p.inputs.times, &mut layers);

    // The same rounds three ways: as timed, with the sink, on one thread.
    // Each context gets an untimed round first to fill its scratch pools.
    let mut go = |ctx: &entry::Context, sink: Option<&SpanSink>, rounds: usize| {
        direct_phase(
            rep,
            ctx,
            &p.sources,
            &p.expected,
            Stop::Rounds(rounds),
            sink,
            &mut tally,
        )
    };
    let plain_ctx = entry::context(threads, None);
    go(&plain_ctx, None, 1);
    let plain = go(&plain_ctx, None, rounds);
    let traced_ctx = entry::context(threads, Some(sink.clone()));
    go(&traced_ctx, None, 1);
    sink.clear();
    let traced = go(&traced_ctx, Some(&sink), rounds);
    let one_ctx = entry::context(1, None);
    go(&one_ctx, None, 1);
    let one = go(&one_ctx, None, rounds);
    layer_direct(
        &plain,
        &traced,
        &one,
        &trace::roots(&sink.spans()),
        &mut layers,
    );
    let direct_spans = sink.spans();

    let probe_inputs = entry::ProbeInputs::new(g);
    layer_probes(g, &view, &plain_ctx, &probe_inputs, &mut layers);
    // The adaptive algorithms pull once the frontier is large, and pull
    // events carry no per-worker tallies, so their spans say nothing about
    // balance. One all-vertex push over the workload's degree distribution
    // does.
    sink.clear();
    entry::push_everything(&traced_ctx, g, &probe_inputs);
    layers.put("core.balance_skew", sink.balance_skew());

    // The engine was built with the sink, so its warm-up is traced too and
    // cleared away before the requests that count.
    let engine = &p.inputs.engine;
    engine_phase(
        engine,
        &p.degrees,
        o.seed,
        Load::OneOfEach,
        Some(&sink),
        &mut tally,
    );
    sink.clear();
    let load = Load::For(secs(o.seconds * 0.3));
    let served = engine_phase(engine, &p.degrees, o.seed, load, Some(&sink), &mut tally);
    layer_serve(&served, &trace::roots(&sink.spans()), &mut layers);
    let (shed, degraded, rebuilt) = entry::engine_counters(engine);
    layers.count("serve.shed", shed, true);
    layers.count("serve.degraded", degraded, true);
    layers.count("serve.rebuilt", rebuilt, true);

    check_direct(g, &plain_ctx, &traced, w.mapped, &mut tally);
    check_served(g, &served, &mut tally);

    let spans_file = match &o.spans_out {
        Some(path) => path.clone(),
        None => workload::scratch_dir()?.join(format!("{}.spans.jsonl", w.name)),
    };
    trace::write_jsonl(&spans_file, &[&direct_spans, &sink.spans()])
        .map_err(|e| format!("writing {}: {e}", spans_file.display()))?;

    Ok(Record {
        workload: w.name,
        seed: o.seed,
        seconds: o.seconds,
        trace: true,
        smoke: o.smoke,
        threads,
        nproc: nproc(),
        input: p.input,
        tally,
        metrics: layers.metrics,
        counts: layers.counts,
        spans_file: Some(spans_file),
    })
}

fn layer_setup(t: &SetupTimes, layers: &mut Layers) {
    layers.put("graph.gen_s", t.gen_s);
    layers.put("graph.build_s", t.build_s);
    layers.put("graph.compress_s", t.compress_s);
    layers.put("graph.ccsr_bytes_per_edge", t.ccsr_bytes_per_edge);
    layers.put("io.write_s", t.write_s);
    layers.put("io.open_s", t.open_s);
    layers.count("io.container_bytes", t.container_bytes as u64, true);
}

/// Each probe once untimed, then the median of nine timed calls.
fn layer_probes(
    g: &entry::RawGraph,
    view: &entry::View<'_>,
    ctx: &entry::Context,
    inputs: &entry::ProbeInputs,
    layers: &mut Layers,
) {
    let mut per_item_s = BTreeMap::new();
    for mut probe in entry::probes(g, view, ctx, inputs) {
        (probe.call)();
        let samples: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                (probe.call)();
                t.elapsed().as_secs_f64()
            })
            .collect();
        per_item_s.insert(probe.metric, stats::median(&samples) / probe.items);
    }
    for (&name, &s) in &per_item_s {
        match name {
            // Collecting an admitted vertex costs what admitting everything
            // adds over admitting nothing.
            "core.push_admit_all_ns_per_edge" => layers.put(
                "core.collect_ns_per_admit",
                (s - per_item_s["core.push_ns_per_edge"]) * 1e9,
            ),
            "core.blocked_build_ms" => layers.put(name, s * 1e3),
            _ => layers.put(name, s * 1e9),
        }
    }
}

fn layer_direct(
    plain: &Direct,
    traced: &Direct,
    one: &Direct,
    roots: &[trace::Root],
    layers: &mut Layers,
) {
    let median_ms = |d: &Direct, a: Algo| stats::median(&d.ms[a as usize]);
    for algo in Algo::ALL {
        let (name, slot) = (algo.name(), algo as usize);
        layers.put(&format!("algos.{name}.ms"), median_ms(plain, algo));
        layers.put(
            &format!("parallel.speedup_t2.{name}"),
            median_ms(one, algo) / median_ms(plain, algo),
        );
        let mine: Vec<&trace::Root> = roots.iter().filter(|r| r.name == name).collect();
        let sum = |f: fn(&trace::Root) -> u64| mine.iter().map(|r| f(r)).sum::<u64>() as f64;
        let wall = sum(|r| r.wall_ns);
        let iterations: u64 = traced.iterations[slot].iter().sum();
        let edges: u64 = traced.edges[slot].iter().sum();
        layers.put(
            &format!("trace.{name}.us_per_iter"),
            wall / 1e3 / iterations as f64,
        );
        layers.put(
            &format!("trace.{name}.ns_per_edge_inspected"),
            wall / edges as f64,
        );
        layers.put(
            &format!("trace.{name}.advance_share"),
            sum(|r| r.advance_ns) / wall,
        );
        layers.put(
            &format!("trace.{name}.filter_share"),
            sum(|r| r.filter_ns) / wall,
        );
        layers.put(
            &format!("trace.{name}.compute_share"),
            sum(|r| r.compute_ns) / wall,
        );
        layers.put(
            &format!("trace.{name}.tail_share"),
            sum(|r| r.tail_ns) / wall,
        );
        // The three passes run the same rounds (same sources in the same
        // order), so their per-round counts must be the same lists; the
        // value reported is the traced pass's total.
        let same = |f: fn(&Direct) -> &[Vec<u64>; 4]| {
            f(plain)[slot] == f(traced)[slot] && f(one)[slot] == f(traced)[slot]
        };
        layers.count(
            &format!("algos.{name}.iterations"),
            iterations,
            same(|d| &d.iterations),
        );
        layers.count(
            &format!("algos.{name}.edges_inspected"),
            edges,
            same(|d| &d.edges),
        );
        if matches!(algo, Algo::Bfs | Algo::Cc) {
            // Only the traced pass sees direction decisions. Its rounds
            // repeat the same runs, and roots are in start order, so every
            // round's worth of roots must hold the same number of pulls.
            let per_round: Vec<u64> = mine
                .chunks((mine.len() / traced.rounds.max(1)).max(1))
                .map(|round| round.iter().map(|r| r.pull_decisions).sum())
                .collect();
            layers.count(
                &format!("algos.{name}.pull_iters"),
                per_round.iter().sum(),
                per_round.iter().all(|&x| x == per_round[0]),
            );
        }
    }
    let total = |d: &Direct| Algo::ALL.iter().map(|&a| median_ms(d, a)).sum::<f64>();
    layers.put("obs.trace_overhead_ratio", total(traced) / total(plain));
}

fn layer_serve(served: &Served, roots: &[trace::Root], layers: &mut Layers) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let of = |kind: Option<Request>, f: &dyn Fn(&trace::Root) -> f64| -> Vec<f64> {
        let picked = roots
            .iter()
            .filter(|r| kind.is_none_or(|k| r.name == k.name()));
        stats::sorted(&picked.map(f).collect::<Vec<f64>>())
    };
    let queue = of(None, &|r| ms(r.queue_ns));
    layers.put("serve.queue_p50_ms", stats::percentile(&queue, 0.5));
    layers.put("serve.queue_p95_ms", stats::percentile(&queue, 0.95));
    layers.put(
        "serve.queued_share",
        queue.iter().filter(|&&q| q > 0.1).count() as f64 / queue.len().max(1) as f64,
    );
    for kind in Request::ALL {
        let service = of(Some(kind), &|r| ms(r.service_ns));
        layers.put(
            &format!("serve.service_p50_ms.{}", kind.name()),
            stats::percentile(&service, 0.5),
        );
    }
    // What the client saw beyond the engine's own queue + service: the
    // gate, the scratch checkout, building the context, emitting the event,
    // returning the lease.
    let overhead = of(None, &|r| {
        r.wall_ns.saturating_sub(r.queue_ns + r.service_ns) as f64 / 1e3
    });
    layers.put("serve.overhead_p50_us", stats::percentile(&overhead, 0.5));
    let batch_ms = stats::median(&served.ms[Request::Batch as usize]);
    layers.put(
        "serve.batch_sources_per_s",
        entry::BATCH as f64 / (batch_ms / 1e3),
    );
    let light = stats::sorted(&served.ms[Request::Light as usize]);
    layers.put("serve.light_p95_ms", stats::percentile(&light, 0.95));
    layers.put("serve.light_p99_ms", stats::percentile(&light, 0.99));
}

/// Every name `BENCHMARK.json` lists for this pass, looked up in what the
/// run measured (NaN when it measured no such thing).
pub fn listed_metrics<'a>(
    spec: &'a Spec,
    record: &Record,
) -> Vec<(&'a crate::spec::MetricSpec, Summary)> {
    let list = if record.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    list.iter()
        .map(|m| {
            let s = record.metrics.get(&m.name).copied();
            (m, s.unwrap_or(Summary::single(f64::NAN)))
        })
        .collect()
}
