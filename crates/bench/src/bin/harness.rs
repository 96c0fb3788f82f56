//! The experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p essentials-bench --bin harness [scale]`
//! (default scale 12 ⇒ ~4k-vertex graphs; scale 14–16 for longer runs).
//!
//! With `--json FILE` the harness writes the machine-readable benchmark
//! snapshot (schema `essentials-bench/v6`, see EXPERIMENTS.md). The
//! resilience flags `--deadline-ms N` and `--max-iters N` attach a
//! `RunBudget` to a dedicated budget experiment in that session: the
//! flagship algorithms run through their fallible `try_*` entry points and
//! every `ExecError` outcome (deadline-expired, iteration-cap, …) lands in
//! the output as its own row instead of aborting the process. The `chaos`
//! experiment (always part of a `--json` session) drives a seeded
//! fault-injection storm through the serving engine; `--chaos-seed N`
//! overrides the default seed so a failing schedule can be replayed
//! deterministically — every fault key is `(request, iteration, chunk)`.
//!
//! With `--obs FILE` the harness instead runs an *observed* session: the
//! flagship traversals execute with a `TeeSink(CountersSink, TraceSink)`
//! attached to the context, every event is exported to FILE as JSON lines,
//! and a summary digest (MTEPS, load-balance skew, iterations) is printed.
//!
//! Each experiment E1–E8 instantiates one coverage claim of the paper's
//! Table I as a measurable comparison; see DESIGN.md §4 for the mapping.
//! Wall times on this host are indicative only (single-core container);
//! the work columns (relaxations, edges inspected, messages, edge-cut) are
//! machine-independent.

#![allow(clippy::type_complexity)]

use std::sync::Arc;

use essentials_algos::{
    bfs, cc, color, hits, kcore, mst, multi_source, pagerank, spmv, sssp, sswp, tc,
};
use essentials_bench::{median_ms, table_header, time_ms, Workload};
use essentials_core::obs::write_jsonl;
use essentials_core::prelude::*;
use essentials_mp::algorithms::{mp_bfs, mp_pagerank, mp_sssp, mp_sssp_combined};
use essentials_mp::async_mp::{async_mp_bfs, async_mp_sssp};
use essentials_partition::{
    balance, contiguous_partition, degree_balanced_placement, edge_cut, multilevel_partition,
    random_partition, MultilevelConfig, PartitionedGraph,
};

fn main() {
    let mut scale: u32 = 12;
    let mut obs_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut max_iters: Option<usize> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--obs" {
            obs_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--obs requires an output path (e.g. --obs out.jsonl)");
                std::process::exit(2);
            }));
        } else if arg == "--json" {
            json_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--json requires an output path (e.g. --json bench.json)");
                std::process::exit(2);
            }));
        } else if arg == "--deadline-ms" {
            deadline_ms = Some(number_arg(args.next(), "--deadline-ms"));
        } else if arg == "--max-iters" {
            max_iters = Some(number_arg(args.next(), "--max-iters"));
        } else if arg == "--chaos-seed" {
            chaos_seed = Some(number_arg(args.next(), "--chaos-seed"));
        } else if let Ok(s) = arg.parse() {
            scale = s;
        } else {
            eprintln!(
                "unrecognized argument {arg:?}; usage: harness [scale] [--obs FILE] \
                 [--json FILE [--deadline-ms N] [--max-iters N] [--chaos-seed N]]"
            );
            std::process::exit(2);
        }
    }
    let budget = match (deadline_ms, max_iters) {
        (None, None) => None,
        (d, m) => {
            let mut b = RunBudget::unlimited();
            if let Some(ms) = d {
                b = b.with_timeout(std::time::Duration::from_millis(ms));
            }
            if let Some(n) = m {
                b = b.with_max_iterations(n);
            }
            Some(b)
        }
    };
    if let Some(path) = json_path {
        json_session(scale, &path, budget, chaos_seed.unwrap_or(0xC0FFEE));
        return;
    }
    if budget.is_some() || chaos_seed.is_some() {
        eprintln!("--deadline-ms/--max-iters/--chaos-seed only apply to --json sessions");
        std::process::exit(2);
    }
    if let Some(path) = obs_path {
        obs_session(scale, &path);
        return;
    }
    let threads = [1usize, 2, 4];
    println!("essentials-rs experiment harness — scale {scale}, host threads sweep {threads:?}");
    println!("(single-core host: wall-times are indicative; work columns are exact)\n");

    e1_timing(scale);
    e2_communication(scale);
    e3_direction(scale);
    e4_partitioning(scale);
    e5_load_balance(scale);
    e6_sssp(scale);
    e7_suite(scale);
    e8_message_passing(scale);
}

/// Parses the numeric operand of `flag`, exiting with usage help when it
/// is missing or malformed.
fn number_arg<T: std::str::FromStr>(val: Option<String>, flag: &str) -> T {
    val.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires a number (e.g. {flag} 50)");
        std::process::exit(2);
    })
}

/// `--obs` mode: run the flagship traversals with the full observability
/// stack attached, export every event as JSON lines, and print the digest.
fn obs_session(scale: u32, path: &str) {
    let ctx = Context::new(4);
    let workers = ctx.pool().num_threads();
    let counters = Arc::new(CountersSink::new(workers));
    let trace = Arc::new(TraceSink::new());
    let tee = TeeSink::new()
        .with(counters.clone() as Arc<dyn ObsSink>)
        .with(trace.clone() as Arc<dyn ObsSink>);
    let ctx = ctx.with_obs(Arc::new(tee));

    println!("observed session — scale {scale}, {workers} workers, trace → {path}");
    let g = Workload::Rmat.symmetric(scale);
    let wg = Workload::Rmat.weighted(scale);

    trace.mark("bfs-direction-optimizing");
    bfs::bfs_direction_optimizing(execution::par, &ctx, &g, 0, bfs::DoParams::default());
    trace.mark("sssp-bsp");
    sssp::sssp(execution::par, &ctx, &wg, 0);
    trace.mark("pagerank-pull");
    pagerank::pagerank_pull(execution::par, &ctx, &g, pagerank::PrConfig::default());

    let records = trace.records();
    let mut file = std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        std::process::exit(1);
    }));
    write_jsonl(&records, &mut file).expect("trace export failed");

    let summary = Summary::from_records(&records);
    println!("{}", summary.render());
    let totals = counters.snapshot();
    println!(
        "counters: {} advance calls, {} edges admitted, {} filter drops, skew {:.3}",
        totals.advance_calls,
        totals.edges_admitted,
        totals.filter_drops,
        totals.skew_ratio()
    );
    println!("{} records written to {path}", records.len());
}

/// One machine-readable benchmark result (a row of BENCH_XXXX.json).
struct JsonRow {
    experiment: &'static str,
    workload: &'static str,
    algo: &'static str,
    variant: String,
    threads: usize,
    ms: f64,
    iterations: usize,
    /// Machine-independent work column: edges inspected (BFS), relaxations
    /// (SSSP), label updates (CC), gathered/scattered edges (PageRank),
    /// set bits visited (bitmap-scan ablation).
    work: usize,
    /// Millions of work units per second (work / ms / 1000).
    mteps: f64,
    /// `"ok"` for completed runs, or the stable [`ExecError::kind`] label
    /// (`cancelled`, `deadline-expired`, `iteration-cap`, `worker-panic`,
    /// `diverged`) when a budgeted run stopped early.
    outcome: &'static str,
    /// Schema-v4 extension point: extra experiment-specific JSON members,
    /// pre-rendered as `,"key":value,...` (empty for plain rows). The
    /// serving experiments carry latency percentiles and saturation flags
    /// here so the core column set stays stable across schema versions.
    extras: String,
}

impl JsonRow {
    fn to_json(&self) -> String {
        // All strings here are static identifiers or ASCII variant labels —
        // nothing needs escaping (same reasoning as the obs JSONL export).
        format!(
            "{{\"experiment\":\"{}\",\"workload\":\"{}\",\"algo\":\"{}\",\"variant\":\"{}\",\"threads\":{},\"ms\":{:.3},\"iterations\":{},\"work\":{},\"mteps\":{:.2},\"outcome\":\"{}\"{}}}",
            self.experiment, self.workload, self.algo, self.variant,
            self.threads, self.ms, self.iterations, self.work, self.mteps,
            self.outcome, self.extras,
        )
    }
}

fn mteps(work: usize, ms: f64) -> f64 {
    if ms > 0.0 {
        work as f64 / ms / 1000.0
    } else {
        0.0
    }
}

/// `--json` mode: the machine-readable benchmark session. Runs the
/// direction-engine comparisons (BFS / SSSP / CC / PageRank, fixed vs
/// adaptive) and the bitmap-scan ablation, and writes every result as one
/// JSON object per row (schema documented in EXPERIMENTS.md). Snapshots of
/// this output are committed as BENCH_XXXX.json; regenerate with
/// `cargo run --release -p essentials-bench --bin harness -- SCALE --json FILE`.
///
/// With a `budget` (from `--deadline-ms`/`--max-iters`) an extra `budget`
/// experiment runs the flagship algorithms through their fallible `try_*`
/// entry points under that [`RunBudget`]; `ExecError` stops become rows
/// with a non-`ok` outcome instead of aborting the session.
///
/// The `chaos` experiment always runs: a seeded fault-injection storm
/// (worker panics at `(iteration, chunk)` coordinates, service delays,
/// exhausted budgets, poisoned recycle locks) against 1-permit and
/// 8-permit serving engines, verifying the resilience contract of
/// DESIGN.md §16 and reporting shed/degraded/quarantine counters. The
/// seed comes from `--chaos-seed` (default `0xC0FFEE`) so any failing
/// schedule replays deterministically.
fn json_session(scale: u32, path: &str, budget: Option<RunBudget>, chaos_seed: u64) {
    use essentials_parallel::atomics::AtomicBitset;

    let mut rows: Vec<JsonRow> = Vec::new();

    // --- direction: BFS push vs pull vs adaptive, thread sweep -----------
    for w in [Workload::Rmat, Workload::Grid] {
        let g = w.symmetric(scale);
        let reference = bfs::bfs_sequential(&g, 0).level;
        for &t in &[1usize, 2, 4] {
            let ctx = Context::new(t);
            let runs: Vec<(&str, Box<dyn Fn() -> bfs::BfsResult>)> = vec![
                ("push", Box::new(|| bfs::bfs(execution::par, &ctx, &g, 0))),
                (
                    "pull",
                    Box::new(|| bfs::bfs_pull(execution::par, &ctx, &g, 0)),
                ),
                (
                    "adaptive",
                    Box::new(|| bfs::bfs_adaptive(execution::par, &ctx, &g, 0)),
                ),
            ];
            for (variant, f) in runs {
                let r = f();
                assert_eq!(r.level, reference, "{variant} diverged");
                let ms = median_ms(3, || {
                    f();
                });
                rows.push(JsonRow {
                    experiment: "direction",
                    workload: w.name(),
                    algo: "bfs",
                    variant: variant.to_string(),
                    threads: t,
                    ms,
                    iterations: r.stats.iterations,
                    work: r.edges_inspected,
                    mteps: mteps(r.edges_inspected, ms),
                    outcome: "ok",
                    extras: String::new(),
                });
            }
        }
    }

    // --- direction: SSSP / CC / PageRank, fixed vs adaptive --------------
    let ctx = Context::new(4);
    for w in [Workload::Rmat, Workload::Grid] {
        let wg = w.weighted(scale);
        let g = w.symmetric(scale);
        let n = g.get_num_vertices();
        let m = g.get_num_edges();

        let sssp_runs: Vec<(&str, Box<dyn Fn() -> sssp::SsspResult>)> = vec![
            (
                "push",
                Box::new(|| sssp::sssp(execution::par, &ctx, &wg, 0)),
            ),
            (
                "adaptive",
                Box::new(|| sssp::sssp_adaptive(execution::par, &ctx, &wg, 0)),
            ),
        ];
        for (variant, f) in sssp_runs {
            let r = f();
            let ms = median_ms(3, || {
                f();
            });
            rows.push(JsonRow {
                experiment: "direction",
                workload: w.name(),
                algo: "sssp",
                variant: variant.to_string(),
                threads: 4,
                ms,
                iterations: r.stats.iterations,
                work: r.relaxations,
                mteps: mteps(r.relaxations, ms),
                outcome: "ok",
                extras: String::new(),
            });
        }

        let cc_runs: Vec<(&str, Box<dyn Fn() -> cc::CcResult>)> = vec![
            (
                "label-prop",
                Box::new(|| cc::cc_label_propagation(execution::par, &ctx, &g)),
            ),
            (
                "adaptive",
                Box::new(|| cc::cc_adaptive(execution::par, &ctx, &g)),
            ),
        ];
        for (variant, f) in cc_runs {
            let r = f();
            let ms = median_ms(3, || {
                f();
            });
            rows.push(JsonRow {
                experiment: "direction",
                workload: w.name(),
                algo: "cc",
                variant: variant.to_string(),
                threads: 4,
                ms,
                iterations: r.stats.iterations,
                work: r.updates,
                mteps: mteps(r.updates, ms),
                outcome: "ok",
                extras: String::new(),
            });
        }

        let cfg = pagerank::PrConfig {
            damping: 0.85,
            tolerance: 0.0, // fixed iteration count: identical work per variant
            max_iterations: 20,
        };
        let pr_runs: Vec<(&str, Box<dyn Fn() -> pagerank::PageRankResult>)> = vec![
            (
                "pull",
                Box::new(|| pagerank::pagerank_pull(execution::par, &ctx, &g, cfg)),
            ),
            (
                "push",
                Box::new(|| pagerank::pagerank_push(execution::par, &ctx, &g, cfg)),
            ),
            (
                "adaptive",
                Box::new(|| {
                    pagerank::pagerank_adaptive(execution::par, &ctx, &g, cfg, Default::default())
                }),
            ),
        ];
        for (variant, f) in pr_runs {
            let r = f();
            let ms = median_ms(3, || {
                f();
            });
            let work = m * r.stats.iterations;
            rows.push(JsonRow {
                experiment: "direction",
                workload: w.name(),
                algo: "pagerank",
                variant: variant.to_string(),
                threads: 4,
                ms,
                iterations: r.stats.iterations,
                work,
                mteps: mteps(work, ms),
                outcome: "ok",
                extras: String::new(),
            });
        }
        let _ = n;
    }

    // --- ablation: bitmap decode — per-bit probe vs iterator vs word scan
    // The "work" column counts the set bits each scan visits; "mteps" is
    // millions of set bits decoded per second. The word scan must win at
    // high density (one load per 64 bits, no iterator machinery).
    let nbits = 1usize << 20;
    for density_pct in [1usize, 25, 50, 90] {
        let bits = AtomicBitset::new(nbits);
        for i in 0..nbits {
            if (i.wrapping_mul(2654435761)) % 100 < density_pct {
                bits.set(i);
            }
        }
        let set = bits.count_ones();
        let sink = std::sync::atomic::AtomicUsize::new(0);
        let pool_ctx = Context::new(4);
        let scans: Vec<(&str, Box<dyn Fn() -> usize>)> = vec![
            (
                "bit_probe",
                Box::new(|| (0..nbits).filter(|&i| bits.get(i)).count()),
            ),
            ("iter_ones", Box::new(|| bits.iter_ones().count())),
            (
                "word_scan",
                Box::new(|| {
                    let mut acc = 0usize;
                    bits.for_each_set(|_| acc += 1);
                    acc
                }),
            ),
            (
                // The kernel the masked pull actually runs: workers take
                // disjoint word ranges and decode them independently.
                "word_scan_par",
                Box::new(|| {
                    pool_ctx.pool().parallel_reduce(
                        0..bits.num_words(),
                        Schedule::Dynamic(64),
                        0usize,
                        |wi| {
                            let mut acc = 0usize;
                            bits.for_each_set_in_words(wi, wi + 1, &mut |_| acc += 1);
                            acc
                        },
                        |a, b| a + b,
                    )
                }),
            ),
        ];
        for (variant, f) in scans {
            assert_eq!(f(), set, "{variant} decoded a different set");
            // Sub-millisecond scans: amortize over 8 inner repetitions and
            // take the median of 9 trials to keep host jitter out of the
            // committed snapshot.
            let ms = median_ms(9, || {
                for _ in 0..8 {
                    sink.fetch_add(f(), std::sync::atomic::Ordering::Relaxed);
                }
            }) / 8.0;
            rows.push(JsonRow {
                experiment: "bitmap-scan",
                workload: "uniform",
                algo: "decode",
                variant: format!("{variant}/{density_pct}pct"),
                threads: if variant == "word_scan_par" { 4 } else { 1 },
                ms,
                iterations: 1,
                work: set,
                mteps: mteps(set, ms),
                outcome: "ok",
                extras: String::new(),
            });
        }
    }

    // --- compression: byte-coded CSR vs raw adjacency (DESIGN.md §14) ----
    // Three claims, one experiment. (1) Layout: zigzag+class-coded gaps
    // against the raw 4-bytes-per-edge column array — the bytes-per-edge
    // row carries both totals and the reduction factor in extras.
    // (2) Decode bandwidth: streaming decoders vs the raw u32 scan across
    // frontier densities; the work column counts edges visited and the
    // extras carry GB/s of adjacency bytes actually touched (the coded
    // stream moves fewer bytes per edge, so equal-MTEPS decode already
    // means less memory traffic). (3) End-to-end: adaptive BFS and pull
    // PageRank — the same generic functions — over compressed vs raw
    // adjacency, asserted bit-identical before timing — the differential suite pins the same
    // equality at small scale, the harness re-checks it at benchmark
    // scale so the committed MTEPS compare like for like.
    {
        let build_ctx = Context::new(4);
        for w in [Workload::Rmat, Workload::Grid] {
            let g = w.symmetric(scale);
            let n = g.get_num_vertices();
            let m = g.get_num_edges();
            let cg = CompressedGraph::from_graph(build_ctx.pool(), &g);

            let coded = cg.out_ccsr().topology_bytes();
            let raw = 4 * m;
            rows.push(JsonRow {
                experiment: "compression",
                workload: w.name(),
                algo: "layout",
                variant: "bytes-per-edge".to_string(),
                threads: 1,
                ms: 0.0,
                iterations: 1,
                work: coded,
                mteps: 0.0,
                outcome: "ok",
                extras: format!(
                    ",\"coded_bytes\":{},\"raw_bytes\":{},\"bytes_per_edge\":{:.3},\"reduction\":{:.2}",
                    coded,
                    raw,
                    coded as f64 / m.max(1) as f64,
                    raw as f64 / coded.max(1) as f64
                ),
            });

            let byte_offsets = cg.out_ccsr().sections().1;
            let sink = std::sync::atomic::AtomicUsize::new(0);
            for density_pct in [1usize, 10, 50, 100] {
                let frontier: Vec<VertexId> = (0..n)
                    .filter(|&v| (v.wrapping_mul(2654435761)) % 100 < density_pct)
                    .map(|v| v as VertexId)
                    .collect();
                let edges: usize = frontier.iter().map(|&v| cg.out_degree(v)).sum();
                let coded_bytes: usize = frontier
                    .iter()
                    .map(|&v| (byte_offsets[v as usize + 1] - byte_offsets[v as usize]) as usize)
                    .sum();
                let decode_pass = || {
                    let mut acc = 0usize;
                    for &v in &frontier {
                        for u in cg.out_neighbors_from(v, 0) {
                            acc = acc.wrapping_add(u as usize);
                        }
                    }
                    acc
                };
                let raw_pass = || {
                    let mut acc = 0usize;
                    for &v in &frontier {
                        for &u in g.out_neighbors(v) {
                            acc = acc.wrapping_add(u as usize);
                        }
                    }
                    acc
                };
                assert_eq!(decode_pass(), raw_pass(), "decoder diverged from raw scan");
                let scans: [(&str, usize, Box<dyn Fn() -> usize>); 2] = [
                    ("decode", coded_bytes, Box::new(decode_pass)),
                    ("raw-scan", 4 * edges, Box::new(raw_pass)),
                ];
                for (variant, bytes, f) in scans {
                    let ms = median_ms(3, || {
                        sink.fetch_add(f(), std::sync::atomic::Ordering::Relaxed);
                    });
                    rows.push(JsonRow {
                        experiment: "compression",
                        workload: w.name(),
                        algo: "scan",
                        variant: format!("{variant}/{density_pct}pct"),
                        threads: 1,
                        ms,
                        iterations: 1,
                        work: edges,
                        mteps: mteps(edges, ms),
                        outcome: "ok",
                        extras: format!(
                            ",\"density_pct\":{},\"bytes\":{},\"gb_per_s\":{:.3}",
                            density_pct,
                            bytes,
                            if ms > 0.0 {
                                bytes as f64 / ms / 1e6
                            } else {
                                0.0
                            }
                        ),
                    });
                }
            }

            let ctx = Context::new(4);
            let raw_bfs = bfs::bfs_adaptive(execution::par, &ctx, &g, 0);
            let cmp_bfs = bfs::bfs_adaptive(execution::par, &ctx, &cg, 0);
            assert_eq!(raw_bfs.level, cmp_bfs.level, "compressed BFS diverged");
            let bfs_runs: [(&str, &bfs::BfsResult, Box<dyn Fn()>); 2] = [
                (
                    "raw-adaptive",
                    &raw_bfs,
                    Box::new(|| {
                        bfs::bfs_adaptive(execution::par, &ctx, &g, 0);
                    }),
                ),
                (
                    "compressed-adaptive",
                    &cmp_bfs,
                    Box::new(|| {
                        bfs::bfs_adaptive(execution::par, &ctx, &cg, 0);
                    }),
                ),
            ];
            for (variant, r, f) in bfs_runs {
                let ms = median_ms(3, &*f);
                rows.push(JsonRow {
                    experiment: "compression",
                    workload: w.name(),
                    algo: "bfs",
                    variant: variant.to_string(),
                    threads: 4,
                    ms,
                    iterations: r.stats.iterations,
                    work: r.edges_inspected,
                    mteps: mteps(r.edges_inspected, ms),
                    outcome: "ok",
                    extras: String::new(),
                });
            }

            let cfg = pagerank::PrConfig {
                damping: 0.85,
                tolerance: 0.0, // fixed iteration count: identical work per variant
                max_iterations: 20,
            };
            let raw_pr = pagerank::pagerank_pull(execution::par, &ctx, &g, cfg);
            let cmp_pr = pagerank::pagerank_pull(execution::par, &ctx, &cg, cfg);
            assert_eq!(raw_pr.rank, cmp_pr.rank, "compressed PageRank diverged");
            let pr_runs: [(&str, &pagerank::PageRankResult, Box<dyn Fn()>); 2] = [
                (
                    "raw-pull",
                    &raw_pr,
                    Box::new(|| {
                        pagerank::pagerank_pull(execution::par, &ctx, &g, cfg);
                    }),
                ),
                (
                    "compressed-pull",
                    &cmp_pr,
                    Box::new(|| {
                        pagerank::pagerank_pull(execution::par, &ctx, &cg, cfg);
                    }),
                ),
            ];
            for (variant, r, f) in pr_runs {
                let ms = median_ms(3, &*f);
                let work = m * r.stats.iterations;
                rows.push(JsonRow {
                    experiment: "compression",
                    workload: w.name(),
                    algo: "pagerank",
                    variant: variant.to_string(),
                    threads: 4,
                    ms,
                    iterations: r.stats.iterations,
                    work,
                    mteps: mteps(work, ms),
                    outcome: "ok",
                    extras: String::new(),
                });
            }
        }
    }

    // --- locality: naive vs blocked vs blocked+placement pull PageRank ---
    // The memory-locality ablation (DESIGN.md §12), measured at iteration
    // granularity: the blocked layout is built once per run (as the
    // algorithms use it), so the timed region is the steady-state gather
    // iteration — the thing PageRank repeats until convergence. Arithmetic
    // is identical across variants (the differential suite pins the
    // results to ≤1e-12); the mteps column is pure iteration throughput.
    // The naive pull random-reads the rank vector per edge, the blocked
    // variant streams a destination-binned layout through cache-resident
    // windows, and the placement arm additionally installs a
    // degree-balanced worker→vertex-range map on a dedicated pool so
    // dynamic loops drain their local segment before stealing.
    {
        let g = Workload::Rmat.symmetric(scale);
        let n = g.get_num_vertices();
        let m = g.get_num_edges();
        let bins = BlockedConfig::default();
        let damping = 0.85;
        let base = (1.0 - damping) / n as f64;
        let iters = 10usize;
        let seq_ctx = Context::sequential();
        let mut inv = vec![0.0f64; n];
        fill_indexed_into(execution::seq, &seq_ctx, &mut inv, |v| {
            let d = g.out_degree(v as VertexId);
            if d == 0 {
                0.0
            } else {
                (d as f64).recip()
            }
        });
        let mut rank = vec![1.0 / n as f64; n];
        let mut next = vec![0.0f64; n];
        for &t in &[1usize, 4] {
            let plain = Context::new(t);
            let placed = {
                let pool = Arc::new(ThreadPool::new(t));
                pool.set_placement(Some(Arc::new(degree_balanced_placement(&g, t))));
                Context::with_pool(pool)
            };
            let mut push_row = |variant: &str, ms: f64| {
                let work = m * iters;
                rows.push(JsonRow {
                    experiment: "locality",
                    workload: "rmat",
                    algo: "pagerank",
                    variant: variant.to_string(),
                    threads: t,
                    ms,
                    iterations: iters,
                    work,
                    mteps: mteps(work, ms),
                    outcome: "ok",
                    extras: String::new(),
                });
            };

            let ms = median_ms(3, || {
                for _ in 0..iters {
                    let (r_now, inv_d) = (&rank, &inv);
                    fill_indexed_into(execution::par, &plain, &mut next, |v| {
                        let s: f64 = g
                            .in_neighbors(v as VertexId)
                            .iter()
                            .map(|&u| r_now[u as usize] * inv_d[u as usize])
                            .sum();
                        base + damping * s
                    });
                    std::mem::swap(&mut rank, &mut next);
                }
            });
            push_row("naive", ms);

            for (variant, ctx) in [("blocked", &plain), ("blocked+placement", &placed)] {
                let mut gather = BlockedGather::over_out_edges(execution::par, ctx, &g, bins);
                let ms = median_ms(3, || {
                    for _ in 0..iters {
                        let (r_now, inv_d) = (&rank, &inv);
                        gather.gather(
                            execution::par,
                            ctx,
                            |u| r_now[u] * inv_d[u],
                            |_, acc| base + damping * acc,
                            &mut next,
                        );
                        std::mem::swap(&mut rank, &mut next);
                    }
                });
                gather.finish(ctx);
                push_row(variant, ms);
            }
        }
    }

    // --- budget: fallible entry points under the CLI RunBudget -----------
    // One row per flagship algorithm, run through try_* with the budget
    // from --deadline-ms/--max-iters attached to the context. A stopped
    // run is a result, not a failure: its row carries the ExecError kind
    // as the outcome, the iterations completed before the stop, and the
    // wall time of the aborted attempt (work is unknown mid-flight ⇒ 0).
    if let Some(b) = budget {
        let g = Workload::Rmat.symmetric(scale);
        let wg = Workload::Rmat.weighted(scale);
        let m = g.get_num_edges();
        let bctx = Context::new(4).with_budget(b);
        let pr_cfg = pagerank::PrConfig::default();
        let runs: Vec<(
            &str,
            &str,
            Box<dyn Fn() -> Result<(usize, usize), ExecError> + '_>,
        )> = vec![
            (
                "bfs",
                "push",
                Box::new(|| {
                    bfs::try_bfs(execution::par, &bctx, &g, 0)
                        .map(|r| (r.stats.iterations, r.edges_inspected))
                }),
            ),
            (
                "sssp",
                "push",
                Box::new(|| {
                    sssp::try_sssp(execution::par, &bctx, &wg, 0)
                        .map(|r| (r.stats.iterations, r.relaxations))
                }),
            ),
            (
                "cc",
                "label-prop",
                Box::new(|| {
                    cc::try_cc_label_propagation(execution::par, &bctx, &g)
                        .map(|r| (r.stats.iterations, r.updates))
                }),
            ),
            (
                "pagerank",
                "pull",
                Box::new(|| {
                    pagerank::try_pagerank_pull(execution::par, &bctx, &g, pr_cfg)
                        .map(|r| (r.stats.iterations, m * r.stats.iterations))
                }),
            ),
            (
                "hits",
                "pull",
                Box::new(|| {
                    hits::try_hits(execution::par, &bctx, &g, hits::HitsConfig::default())
                        .map(|r| (r.stats.iterations, m * r.stats.iterations))
                }),
            ),
        ];
        for (algo, variant, f) in runs {
            let (ms, res) = time_ms(&*f);
            rows.push(match res {
                Ok((iterations, work)) => JsonRow {
                    experiment: "budget",
                    workload: "rmat",
                    algo,
                    variant: variant.to_string(),
                    threads: 4,
                    ms,
                    iterations,
                    work,
                    mteps: mteps(work, ms),
                    outcome: "ok",
                    extras: String::new(),
                },
                Err(e) => JsonRow {
                    experiment: "budget",
                    workload: "rmat",
                    algo,
                    variant: variant.to_string(),
                    threads: 4,
                    ms,
                    iterations: match &e {
                        ExecError::Budget { progress, .. } => progress.iterations,
                        ExecError::Diverged { iteration, .. } => *iteration,
                        ExecError::WorkerPanic { .. } | ExecError::InvalidInput { .. } => 0,
                    },
                    work: 0,
                    mteps: 0.0,
                    outcome: e.kind(),
                    extras: String::new(),
                },
            });
        }
    }

    // --- multi-source: 64-wide batched BFS vs 64 dedicated traversals ----
    // The serving engine's throughput claim, measured head-on: answering
    // 64 reachability probes with one mask-word batch traversal versus 64
    // independent single-source runs on the same context. The work column
    // is edges inspected; the extras carry the aggregate source
    // throughput, where the batch's amortization (one inspection relaxes
    // up to 64 lanes) should yield ≥4× on power-law graphs.
    {
        let g = Workload::Rmat.symmetric(scale);
        let n = g.get_num_vertices();
        let ctx = Context::new(4);
        let sources: Vec<VertexId> = (0..64)
            .map(|i| ((i * 2_654_435_761usize) % n) as VertexId)
            .collect();
        // Pin correctness before timing anything.
        let batch = multi_source::bfs_multi_source(execution::par, &ctx, &g, &sources);
        let mut seq_edges = 0usize;
        for (s, &src) in sources.iter().enumerate() {
            let single = bfs::bfs(execution::par, &ctx, &g, src);
            assert_eq!(
                batch.source_levels(s),
                single.level,
                "multi-source lane {s} diverged"
            );
            seq_edges += single.edges_inspected;
        }
        let (batch_edges, batch_iters) = (batch.edges_inspected, batch.iterations);
        batch.recycle(&ctx);
        let batched_ms = median_ms(3, || {
            multi_source::bfs_multi_source(execution::par, &ctx, &g, &sources).recycle(&ctx);
        });
        let sequential_ms = median_ms(3, || {
            for &src in &sources {
                bfs::bfs(execution::par, &ctx, &g, src);
            }
        });
        for (variant, ms, iterations, work) in [
            ("batched64", batched_ms, batch_iters, batch_edges),
            ("sequential64", sequential_ms, 0, seq_edges),
        ] {
            rows.push(JsonRow {
                experiment: "multi-source",
                workload: "rmat",
                algo: "bfs",
                variant: variant.to_string(),
                threads: 4,
                ms,
                iterations,
                work,
                mteps: mteps(work, ms),
                outcome: "ok",
                extras: format!(",\"sources\":64,\"sources_per_sec\":{:.1}", 64_000.0 / ms),
            });
        }
    }

    // --- query-mix: closed-loop serving sweep over client counts ---------
    // The serving engine under a mixed light/heavy workload: C closed-loop
    // clients, each cycling think → request → measure, with deterministic
    // Poisson-ish think times (seeded LCG driving an exponential, mean
    // 1 ms — arrival *pattern* is reproducible; wall-times are host
    // facts). Every tenth request per client is a heavy PageRank; the rest
    // are light single-source probes. Rows report aggregate throughput
    // plus light-class latency percentiles, and the saturation point —
    // the first client count whose throughput gain over the previous
    // level drops below 10% (the sweep extends past the engine's permit
    // count, so the knee always exists).
    {
        use essentials_serve::{Engine, EngineConfig};
        let graph = Arc::new(Workload::Rmat.symmetric(scale));
        let n = graph.get_num_vertices();
        let engine = Engine::new(
            graph,
            EngineConfig {
                threads: 4,
                permits: 4,
                heavy_permits: 1,
            },
        );
        let pr_cfg = pagerank::PrConfig {
            damping: 0.85,
            tolerance: 0.0,
            max_iterations: 5,
        };
        const REQS_PER_CLIENT: usize = 12;
        let mut sweep: Vec<(usize, f64, Vec<f64>, usize)> = Vec::new();
        for &clients in &[1usize, 2, 4, 8, 16] {
            let latencies: std::sync::Mutex<Vec<f64>> = std::sync::Mutex::new(Vec::new());
            let completed = std::sync::atomic::AtomicUsize::new(0);
            let t0 = std::time::Instant::now();
            std::thread::scope(|scope| {
                for c in 0..clients {
                    let engine = &engine;
                    let latencies = &latencies;
                    let completed = &completed;
                    scope.spawn(move || {
                        // Deterministic per-client think-time stream.
                        let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15 ^ (c as u64);
                        for req in 0..REQS_PER_CLIENT {
                            lcg = lcg
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let u = (lcg >> 11) as f64 / (1u64 << 53) as f64;
                            let think_us = (-1000.0 * (1.0 - u).ln()) as u64;
                            std::thread::sleep(std::time::Duration::from_micros(think_us));
                            let source = ((c * 131 + req * 977) % n) as VertexId;
                            let t = std::time::Instant::now();
                            if req % 10 == 9 {
                                engine
                                    .pagerank(pr_cfg, RunBudget::unlimited())
                                    .expect("pagerank served");
                            } else {
                                engine
                                    .bfs(source, RunBudget::unlimited())
                                    .expect("bfs served");
                                let ms = t.elapsed().as_secs_f64() * 1e3;
                                latencies.lock().expect("latency log").push(ms);
                            }
                            completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    });
                }
            });
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut lat = latencies.into_inner().expect("latency log");
            lat.sort_by(|a, b| a.total_cmp(b));
            let total = completed.load(std::sync::atomic::Ordering::Relaxed);
            sweep.push((clients, wall_ms, lat, total));
        }
        let rps: Vec<f64> = sweep
            .iter()
            .map(|(_, wall_ms, _, total)| *total as f64 / (wall_ms / 1e3))
            .collect();
        // Saturation knee: <10% throughput gain over the previous level.
        let knee = (1..rps.len())
            .find(|&i| rps[i] < rps[i - 1] * 1.10)
            .unwrap_or(rps.len() - 1);
        let pct = |lat: &[f64], q: f64| -> f64 {
            if lat.is_empty() {
                return 0.0;
            }
            lat[(((lat.len() - 1) as f64) * q).round() as usize]
        };
        for (i, (clients, wall_ms, lat, total)) in sweep.iter().enumerate() {
            rows.push(JsonRow {
                experiment: "query-mix",
                workload: "rmat",
                algo: "serve",
                variant: format!("mix/c{clients}"),
                threads: 4,
                ms: *wall_ms,
                iterations: *total,
                work: *total,
                mteps: mteps(*total, *wall_ms),
                outcome: "ok",
                extras: format!(
                    ",\"clients\":{},\"rps\":{:.1},\"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3},\"saturated\":{}",
                    clients,
                    rps[i],
                    pct(lat, 0.50),
                    pct(lat, 0.95),
                    pct(lat, 0.99),
                    i >= knee
                ),
            });
        }
    }

    // --- chaos: seeded fault-injection storm through the serving engine --
    // The resilience contract of DESIGN.md §16 as a benchmark row: a
    // seeded [`RequestFaultPlan`] (mid-run worker panics at
    // `(iteration, chunk)` coordinates, service delays, exhausted budgets,
    // poisoned recycle locks) is driven through 1-permit and 8-permit
    // engines by closed-loop clients running a mixed light/heavy workload.
    // Every outcome must be a bit-identical result or a documented typed
    // error; slot accounting must never leak; after the storm a recovery
    // wave rebuilds the quarantined scratch and clean results must match
    // the serial oracles. Any violated check prints the plan's exact
    // `(request, iteration, chunk)` fault keys so the schedule replays
    // from `--chaos-seed`.
    {
        use essentials_parallel::{RequestFault, RequestFaultPlan};
        use essentials_serve::{Brownout, Engine, EngineConfig, Outcome};
        use std::sync::Barrier;
        use std::time::Duration;

        #[derive(Debug, Default, Clone, Copy)]
        struct ChaosTally {
            requests: usize,
            ok: usize,
            degraded: usize,
            panics: usize,
            sheds: usize,
            other_typed: usize,
            slot_leaks: usize,
        }

        /// Error kinds a chaos request may legitimately surface.
        const CHAOS_KINDS: &[&str] = &[
            "worker-panic",
            "cancelled",
            "deadline-expired",
            "iteration-cap",
            "diverged",
            "invalid-input",
            "queue-deadline",
            "shed",
        ];

        /// Prints the failed check plus every planned fault key
        /// (`(request, iteration, chunk)`), then aborts the experiment —
        /// rerunning with the printed `--chaos-seed` replays the schedule.
        fn chaos_bail(msg: &str, seed: u64, plan: &RequestFaultPlan) -> ! {
            eprintln!("chaos assertion failed: {msg}");
            eprintln!("replay with --chaos-seed {seed}; planned fault keys:");
            for &(id, ref f) in plan.faults() {
                let (i, c) = f.coordinate();
                eprintln!("  (request {id}, iteration {i}, chunk {c}) [{}]", f.name());
            }
            panic!("chaos experiment failed (seed {seed}): {msg}");
        }

        let seed = chaos_seed;
        // Time-boxed even at large --json scales: this experiment measures
        // resilience counters, not throughput scaling.
        let graph = Arc::new(Workload::Rmat.symmetric(scale.min(11)));
        let n = graph.get_num_vertices();
        const CLIENTS: usize = 4;
        const ROUNDS: usize = 30;
        let storm_requests = (CLIENTS * ROUNDS) as u64;

        // The engine captures injected panics and quarantines the slot; the
        // default hook would still spray their backtraces. Filter only the
        // expected chaos payloads — real panics keep the default report.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if msg.contains("injected fault at") || msg.contains("chaos-injected") {
                return;
            }
            default_hook(info);
        }));

        for &(permits, heavy_permits) in &[(1usize, 1usize), (8usize, 2usize)] {
            let base = RequestFaultPlan::seeded(seed, storm_requests, 45, 30, 20, 10, 3, 2, 300);
            // Recovery-wave requests (ids past the storm) get a service
            // delay so `permits` concurrent requests overlap and claim
            // every slot — quarantined scratch only rebuilds on claim.
            let mut plan = base;
            for id in storm_requests..storm_requests + (permits * 20) as u64 {
                plan = plan.fault_at(id, RequestFault::Delay { micros: 20_000 });
            }
            let plan = Arc::new(plan);
            let faults = plan.len();

            // Serial oracles, computed before any chaos.
            let sources: Vec<VertexId> = (0..CLIENTS as VertexId)
                .map(|i| (i * 97) % n as VertexId)
                .collect();
            let oracle: Vec<Vec<u32>> = sources
                .iter()
                .map(|&s| bfs::bfs_sequential(&graph, s).level)
                .collect();
            let pr_cfg = pagerank::PrConfig {
                damping: 0.85,
                tolerance: 1e-12,
                max_iterations: 20,
            };
            let clean = Engine::new(
                graph.clone(),
                EngineConfig {
                    threads: 2,
                    permits,
                    heavy_permits,
                },
            );
            let pr_ref = clean
                .pagerank(pr_cfg, RunBudget::unlimited())
                .expect("reference pagerank")
                .rank;

            let engine = Engine::new(
                graph.clone(),
                EngineConfig {
                    threads: 2,
                    permits,
                    heavy_permits,
                },
            )
            .with_chaos(plan.clone());

            let start = Barrier::new(CLIENTS);
            let t0 = std::time::Instant::now();
            let results: Vec<(ChaosTally, Vec<f64>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let engine = &engine;
                        let sources = &sources;
                        let oracle = &oracle;
                        let pr_ref = &pr_ref;
                        let plan = &plan;
                        let start = &start;
                        scope.spawn(move || {
                            start.wait();
                            let mut t = ChaosTally::default();
                            let mut light_ms: Vec<f64> = Vec::new();
                            let mut lcg: u64 = seed ^ (c as u64).wrapping_mul(0x9E37_79B9);
                            for round in 0..ROUNDS {
                                lcg = lcg
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407);
                                std::thread::sleep(Duration::from_micros((lcg >> 56) * 2));
                                t.requests += 1;
                                let req_t0 = std::time::Instant::now();
                                let err = match (c + round) % 4 {
                                    // Light probe (bounded deadline feeds
                                    // the shed gate): bit-identical on Ok.
                                    0 => match engine.bfs(
                                        sources[c],
                                        RunBudget::unlimited()
                                            .with_timeout(Duration::from_millis(80)),
                                    ) {
                                        Ok(r) => {
                                            if r.level != oracle[c] {
                                                chaos_bail(
                                                    &format!("client {c} round {round}: wrong bfs under chaos"),
                                                    seed,
                                                    plan,
                                                );
                                            }
                                            light_ms
                                                .push(req_t0.elapsed().as_secs_f64() * 1e3);
                                            None
                                        }
                                        Err(e) => Some(e),
                                    },
                                    // Batched probe: every lane identical.
                                    1 => match engine.bfs_batch(sources, RunBudget::unlimited())
                                    {
                                        Ok(batch) => {
                                            for (s, want) in oracle.iter().enumerate() {
                                                if &batch.source_levels(s) != want {
                                                    chaos_bail(
                                                        &format!("client {c} round {round} lane {s}: wrong batch under chaos"),
                                                        seed,
                                                        plan,
                                                    );
                                                }
                                            }
                                            engine.recycle_batch(batch);
                                            None
                                        }
                                        Err(e) => Some(e),
                                    },
                                    // Degradable heavy: browns out under
                                    // pressure instead of shedding.
                                    2 => match engine.pagerank_degradable(
                                        pr_cfg,
                                        RunBudget::unlimited()
                                            .with_timeout(Duration::from_millis(250)),
                                        Brownout::new(3),
                                    ) {
                                        Ok(resp) => {
                                            let sum: f64 = resp.value.rank.iter().sum();
                                            if (sum - 1.0).abs() > 1e-6 {
                                                chaos_bail(
                                                    &format!("client {c} round {round}: ranks sum to {sum}"),
                                                    seed,
                                                    plan,
                                                );
                                            }
                                            if let Outcome::Degraded { .. } = resp.outcome {
                                                t.degraded += 1;
                                            }
                                            None
                                        }
                                        Err(e) => Some(e),
                                    },
                                    // Plain heavy: within summation noise.
                                    _ => match engine.pagerank(pr_cfg, RunBudget::unlimited())
                                    {
                                        Ok(pr) => {
                                            for (a, b) in pr.rank.iter().zip(pr_ref) {
                                                if (a - b).abs() > 1e-9 {
                                                    chaos_bail(
                                                        &format!("client {c} round {round}: rank drift under chaos"),
                                                        seed,
                                                        plan,
                                                    );
                                                }
                                            }
                                            None
                                        }
                                        Err(e) => Some(e),
                                    },
                                };
                                match err {
                                    Some(e) => {
                                        let kind = e.kind();
                                        if !CHAOS_KINDS.contains(&kind) {
                                            chaos_bail(
                                                &format!("client {c} round {round}: unexpected error kind {kind:?}"),
                                                seed,
                                                plan,
                                            );
                                        }
                                        match kind {
                                            "worker-panic" => t.panics += 1,
                                            "shed" => t.sheds += 1,
                                            _ => t.other_typed += 1,
                                        }
                                    }
                                    None => t.ok += 1,
                                }
                                // Zero-leak invariant, sampled while faults
                                // fly: free + leased + quarantined == permits.
                                let h = engine.health();
                                if h.free_slots + h.leased_slots + h.quarantined_slots
                                    != h.permits
                                {
                                    t.slot_leaks += 1;
                                }
                            }
                            (t, light_ms)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("chaos client panicked"))
                    .collect()
            });
            let storm_ms = t0.elapsed().as_secs_f64() * 1e3;

            let mut total = ChaosTally::default();
            let mut light_ms: Vec<f64> = Vec::new();
            for (t, l) in results {
                total.requests += t.requests;
                total.ok += t.ok;
                total.degraded += t.degraded;
                total.panics += t.panics;
                total.sheds += t.sheds;
                total.other_typed += t.other_typed;
                total.slot_leaks += t.slot_leaks;
                light_ms.extend(l);
            }
            light_ms.sort_by(|a, b| a.total_cmp(b));
            let h = engine.health();
            if total.slot_leaks > 0 {
                chaos_bail(
                    &format!("{} slot-leak samples mid-storm", total.slot_leaks),
                    seed,
                    &plan,
                );
            }
            if h.leased_slots != 0 || h.free_slots + h.quarantined_slots != h.permits {
                chaos_bail("slot accounting broken after the storm", seed, &plan);
            }
            if h.quarantined_total != total.panics as u64
                || h.quarantined_total - h.rebuilt_total != h.quarantined_slots as u64
            {
                chaos_bail("quarantine counters do not reconcile", seed, &plan);
            }
            if total.sheds > total.requests / 2 {
                chaos_bail(
                    &format!("unbounded shed rate: {} of {}", total.sheds, total.requests),
                    seed,
                    &plan,
                );
            }

            // Recovery: delay-pinned waves claim (and rebuild) every slot.
            let mut waves = 0;
            while engine.health().quarantined_slots > 0 && waves < 20 {
                let wave_start = Barrier::new(permits);
                std::thread::scope(|scope| {
                    for w in 0..permits {
                        let engine = &engine;
                        let graph = &graph;
                        let plan = &plan;
                        let wave_start = &wave_start;
                        scope.spawn(move || {
                            wave_start.wait();
                            let s = (w as VertexId * 131) % n as VertexId;
                            let got = engine
                                .bfs(s, RunBudget::unlimited())
                                .expect("recovery request must succeed");
                            if got.level != bfs::bfs_sequential(graph, s).level {
                                chaos_bail("recovery bfs not bit-identical", seed, plan);
                            }
                        });
                    }
                });
                waves += 1;
            }
            let h = engine.health();
            if h.quarantined_slots != 0 || h.free_slots != h.permits {
                chaos_bail("quarantined slots did not rebuild", seed, &plan);
            }
            // Post-chaos clean requests: bit-identical vs the oracles.
            let batch = engine
                .bfs_batch(&sources, RunBudget::unlimited())
                .expect("post-chaos batch");
            for (s, want) in oracle.iter().enumerate() {
                if &batch.source_levels(s) != want {
                    chaos_bail("post-chaos batch lane drifted", seed, &plan);
                }
            }
            engine.recycle_batch(batch);
            let pr = engine
                .pagerank(pr_cfg, RunBudget::unlimited())
                .expect("post-chaos pagerank");
            if pr
                .rank
                .iter()
                .zip(&pr_ref)
                .any(|(a, b)| (a - b).abs() > 1e-9)
            {
                chaos_bail("post-chaos rank drifted", seed, &plan);
            }

            let p99 = if light_ms.is_empty() {
                0.0
            } else {
                light_ms[((light_ms.len() - 1) as f64 * 0.99).round() as usize]
            };
            rows.push(JsonRow {
                experiment: "chaos",
                workload: "rmat",
                algo: "serve",
                variant: format!("permits-{permits}"),
                threads: 2,
                ms: storm_ms,
                iterations: total.requests,
                work: total.ok,
                mteps: 0.0,
                outcome: "ok",
                extras: format!(
                    ",\"seed\":{seed},\"faults\":{faults},\"ok\":{},\"sheds\":{},\"degraded\":{},\"panics\":{},\"other_typed\":{},\"quarantined_total\":{},\"rebuilt_total\":{},\"slot_leaks\":{},\"recovered_identical\":true,\"p99_light_ms\":{p99:.3}",
                    total.ok,
                    total.sheds,
                    total.degraded,
                    total.panics,
                    total.other_typed,
                    h.quarantined_total,
                    h.rebuilt_total,
                    total.slot_leaks,
                ),
            });
        }
        // Restore the default panic reporting for the rest of the session.
        let _ = std::panic::take_hook();
    }

    // --- serialize -------------------------------------------------------
    let mut out = String::with_capacity(rows.len() * 160 + 128);
    out.push_str(&format!(
        "{{\n  \"schema\": \"essentials-bench/v6\",\n  \"scale\": {scale},\n  \"rows\": [\n"
    ));
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&row.to_json());
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, &out).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("{} benchmark rows written to {path}", rows.len());
}

/// E1 — Timing models: BSP vs asynchronous (Table I row 1).
fn e1_timing(scale: u32) {
    println!("== E1: timing — bulk-synchronous vs asynchronous (SSSP & BFS) ==");
    table_header(&[
        ("workload", 11),
        ("algo", 6),
        ("mode", 12),
        ("threads", 7),
        ("ms", 9),
        ("supersteps", 10),
        ("work", 10),
    ]);
    for w in [Workload::Rmat, Workload::Grid] {
        let g = w.weighted(scale);
        for &t in &[1usize, 2, 4] {
            let ctx = Context::new(t);
            // BSP work columns come from the observability layer: one
            // observed run with a CountersSink attached reports the edges
            // the advance operator actually inspected (for SSSP that count
            // *is* the relaxations attempted — see tests/obs_counters.rs).
            // The timed runs use the bare context, so the wall-time column
            // never pays for the detail counting. The async variants bypass
            // the operator layer entirely and keep their algo-level
            // counters.
            let observed_edges = |run: &dyn Fn(&Context)| {
                let sink = Arc::new(CountersSink::new(ctx.pool().num_threads()));
                let octx = ctx.clone().with_obs(sink.clone() as Arc<dyn ObsSink>);
                run(&octx);
                sink.snapshot().edges_inspected as usize
            };
            let runs: Vec<(&str, &str, Box<dyn Fn() -> (usize, usize)>, Box<dyn Fn()>)> = vec![
                (
                    "sssp",
                    "bsp/par",
                    Box::new(|| {
                        let r = sssp::sssp(execution::par, &ctx, &g, 0);
                        let work = observed_edges(&|octx: &Context| {
                            sssp::sssp(execution::par, octx, &g, 0);
                        });
                        (r.stats.iterations, work)
                    }),
                    Box::new(|| {
                        sssp::sssp(execution::par, &ctx, &g, 0);
                    }),
                ),
                (
                    "sssp",
                    "async",
                    Box::new(|| {
                        let r = sssp::sssp_async(&ctx, &g, 0);
                        (r.stats.iterations, r.relaxations)
                    }),
                    Box::new(|| {
                        sssp::sssp_async(&ctx, &g, 0);
                    }),
                ),
                (
                    "bfs",
                    "bsp/par",
                    Box::new(|| {
                        let r = bfs::bfs(execution::par, &ctx, &g, 0);
                        let work = observed_edges(&|octx: &Context| {
                            bfs::bfs(execution::par, octx, &g, 0);
                        });
                        (r.stats.iterations, work)
                    }),
                    Box::new(|| {
                        bfs::bfs(execution::par, &ctx, &g, 0);
                    }),
                ),
                (
                    "bfs",
                    "async",
                    Box::new(|| {
                        let r = bfs::bfs_async(&ctx, &g, 0);
                        (r.stats.iterations, r.edges_inspected)
                    }),
                    Box::new(|| {
                        bfs::bfs_async(&ctx, &g, 0);
                    }),
                ),
            ];
            for (algo, mode, measure, timed) in runs {
                let (iters, work) = measure();
                let ms = median_ms(3, &*timed);
                println!(
                    "{:>11}  {algo:>6}  {mode:>12}  {t:>7}  {ms:>9.2}  {iters:>10}  {work:>10}",
                    w.name()
                );
            }
        }
    }
    println!();
}

/// E2 — Communication: frontier representations behind one interface
/// (Table I row 2).
fn e2_communication(scale: u32) {
    println!("== E2: communication — sparse vs dense(bitmap) vs queue frontiers (BFS) ==");
    table_header(&[
        ("workload", 11),
        ("frontier", 14),
        ("ms", 9),
        ("iters", 6),
        ("edges", 10),
    ]);
    let ctx = Context::new(2);
    for w in Workload::ALL {
        let g = w.directed(scale);
        let runs: Vec<(&str, Box<dyn Fn() -> bfs::BfsResult>)> = vec![
            (
                "sparse(vec)",
                Box::new(|| bfs::bfs(execution::par, &ctx, &g, 0)),
            ),
            (
                "dense(bitmap)",
                Box::new(|| bfs::bfs_dense(execution::par, &ctx, &g, 0)),
            ),
            ("queue(msgs)", Box::new(|| bfs::bfs_queue(&ctx, &g, 0))),
        ];
        let reference = bfs::bfs_sequential(&g, 0).level;
        for (name, f) in runs {
            let r = f();
            assert_eq!(r.level, reference, "{name} diverged");
            let ms = median_ms(3, || {
                f();
            });
            println!(
                "{:>11}  {name:>14}  {ms:>9.2}  {:>6}  {:>10}",
                w.name(),
                r.stats.iterations,
                r.edges_inspected
            );
        }
    }
    println!();
}

/// E3 — Execution model: push vs pull vs direction-optimizing
/// (Table I row 3).
fn e3_direction(scale: u32) {
    println!("== E3: push vs pull vs direction-optimizing ==");
    table_header(&[
        ("workload", 11),
        ("variant", 9),
        ("ms", 9),
        ("edges-inspected", 15),
        ("pull-iters", 10),
    ]);
    let ctx = Context::new(2);
    for w in [Workload::Rmat, Workload::Grid] {
        let g = w.symmetric(scale);
        let reference = bfs::bfs_sequential(&g, 0).level;
        let runs: Vec<(&str, Box<dyn Fn() -> bfs::BfsResult>)> = vec![
            ("push", Box::new(|| bfs::bfs(execution::par, &ctx, &g, 0))),
            (
                "pull",
                Box::new(|| bfs::bfs_pull(execution::par, &ctx, &g, 0)),
            ),
            (
                "do",
                Box::new(|| {
                    bfs::bfs_direction_optimizing(
                        execution::par,
                        &ctx,
                        &g,
                        0,
                        bfs::DoParams::default(),
                    )
                }),
            ),
        ];
        for (name, f) in runs {
            let r = f();
            assert_eq!(r.level, reference, "{name} diverged");
            let pulls = r
                .directions
                .iter()
                .filter(|&&d| d == bfs::Direction::Pull)
                .count();
            let ms = median_ms(3, || {
                f();
            });
            println!(
                "{:>11}  {name:>9}  {ms:>9.2}  {:>15}  {pulls:>10}",
                w.name(),
                r.edges_inspected
            );
        }
    }
    // PageRank push vs pull: same fixpoint, different direction.
    println!("\n   pagerank (same fixpoint through either direction):");
    table_header(&[("workload", 11), ("variant", 9), ("ms", 9), ("iters", 6)]);
    let cfg = pagerank::PrConfig {
        tolerance: 1e-8,
        ..pagerank::PrConfig::default()
    };
    let ctx = Context::new(2);
    for w in [Workload::Rmat, Workload::Grid] {
        let g = w.symmetric(scale);
        let pull = pagerank::pagerank_pull(execution::par, &ctx, &g, cfg);
        let push = pagerank::pagerank_push(execution::par, &ctx, &g, cfg);
        let diff = pull
            .rank
            .iter()
            .zip(&push.rank)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < 1e-6, "push/pull fixpoints diverged: {diff}");
        for (name, iters) in [
            ("pull", pull.stats.iterations),
            ("push", push.stats.iterations),
        ] {
            let ms = median_ms(2, || {
                if name == "pull" {
                    pagerank::pagerank_pull(execution::par, &ctx, &g, cfg);
                } else {
                    pagerank::pagerank_push(execution::par, &ctx, &g, cfg);
                }
            });
            println!("{:>11}  {name:>9}  {ms:>9.2}  {iters:>6}", w.name());
        }
    }
    println!();
}

/// E4 — Partitioning heuristics (Table I row 4).
fn e4_partitioning(scale: u32) {
    println!("== E4: partitioning — random vs contiguous vs multilevel ==");
    table_header(&[
        ("workload", 11),
        ("heuristic", 10),
        ("k", 3),
        ("edge-cut", 9),
        ("balance", 8),
        ("mp-bfs remote msgs", 18),
    ]);
    for w in Workload::ALL {
        let g = w.symmetric(scale);
        let n = g.get_num_vertices();
        for k in [2usize, 4, 8] {
            let parts = [
                ("random", random_partition(n, k, 1)),
                ("contig", contiguous_partition(n, k)),
                (
                    "multilevel",
                    multilevel_partition(&g, MultilevelConfig::new(k)),
                ),
            ];
            for (name, p) in parts {
                let cut = edge_cut(&g, &p);
                let bal = balance(&p);
                let pg = PartitionedGraph::build(&g, &p);
                let (_, stats) = mp_bfs(&pg, 0);
                println!(
                    "{:>11}  {name:>10}  {k:>3}  {cut:>9}  {bal:>8.3}  {:>18}",
                    w.name(),
                    stats.messages_remote
                );
            }
        }
    }
    println!();
}

/// E5 — Load balancing inside operators (§IV-C).
fn e5_load_balance(scale: u32) {
    println!("== E5: operator load balancing — vertex- vs edge-balanced advance ==");

    // Machine-independent half: divide the full-graph frontier among T
    // workers statically by vertices vs. by edges, and report the worst
    // worker's share of edge work relative to ideal (1.0 = perfect).
    println!("   static work division imbalance (max worker edges / ideal):");
    table_header(&[
        ("workload", 11),
        ("workers", 7),
        ("by-vertex", 10),
        ("by-edge", 10),
    ]);
    for w in [Workload::Rmat, Workload::Grid] {
        let g = w.directed(scale);
        let degrees: Vec<usize> = g.vertices().map(|v| g.out_degree(v)).collect();
        let total: usize = degrees.iter().sum();
        for t in [2usize, 4, 8] {
            let ideal = total as f64 / t as f64;
            // Vertex-contiguous chunks.
            let chunk = degrees.len().div_ceil(t);
            let worst_vertex = degrees
                .chunks(chunk)
                .map(|c| c.iter().sum::<usize>())
                .max()
                .unwrap_or(0) as f64;
            // Edge-balanced chunks: walk the prefix sum cutting at ideal
            // boundaries (a vertex's edges stay together, as the operator's
            // merge-path division does at vertex granularity).
            let mut worst_edge = 0usize;
            let mut acc = 0usize;
            let mut cut = 1usize;
            let mut current = 0usize;
            for &d in &degrees {
                current += d;
                acc += d;
                if acc as f64 >= ideal * cut as f64 {
                    worst_edge = worst_edge.max(current);
                    current = 0;
                    cut += 1;
                }
            }
            worst_edge = worst_edge.max(current);
            println!(
                "{:>11}  {t:>7}  {:>10.2}  {:>10.2}",
                w.name(),
                worst_vertex / ideal,
                worst_edge as f64 / ideal
            );
        }
    }

    println!(
        "
   wall time (indicative on this host):"
    );
    table_header(&[
        ("workload", 11),
        ("strategy", 15),
        ("threads", 7),
        ("ms", 9),
    ]);
    use essentials_parallel::atomics::Counter;
    for w in [Workload::Rmat, Workload::Grid] {
        let g = w.directed(scale);
        let frontier: Vec<VertexId> = g.vertices().collect();
        for &t in &[2usize, 4] {
            let ctx = Context::new(t);
            let vertex_ms = median_ms(3, || {
                let c = Counter::new();
                essentials_core::load_balance::for_each_vertex_balanced(&ctx, &frontier, |_, v| {
                    let mut acc = 0usize;
                    for &d in g.out_neighbors(v) {
                        acc = acc.wrapping_add(d as usize);
                    }
                    c.add(acc & 1);
                });
            });
            let edge_ms = median_ms(3, || {
                let c = Counter::new();
                essentials_core::load_balance::for_each_edge_balanced(
                    &ctx,
                    &g,
                    &frontier,
                    |_, _, dst, _| {
                        c.add(dst as usize & 1);
                    },
                );
            });
            println!(
                "{:>11}  {:>15}  {t:>7}  {vertex_ms:>9.2}",
                w.name(),
                "vertex-balanced"
            );
            println!(
                "{:>11}  {:>15}  {t:>7}  {edge_ms:>9.2}",
                w.name(),
                "edge-balanced"
            );
        }
        // Mutex-guarded Listing-3 vs collector-based expansion.
        let ctx = Context::new(4);
        let f: SparseFrontier = g.vertices().collect();
        let mutex_ms = median_ms(2, || {
            neighbors_expand_mutex(execution::par, &ctx, &g, &f, |_, _, _, _| true);
        });
        let collector_ms = median_ms(2, || {
            neighbors_expand(execution::par, &ctx, &g, &f, |_, _, _, _| true);
        });
        println!(
            "{:>11}  {:>15}  {:>7}  {mutex_ms:>9.2}   (Listing-3 mutex output)",
            w.name(),
            "mutex-output",
            4
        );
        println!(
            "{:>11}  {:>15}  {:>7}  {collector_ms:>9.2}   (per-thread collectors)",
            w.name(),
            "collector",
            4
        );
    }
    println!();
}

/// E6 — Listing-4 SSSP against hand-written baselines.
fn e6_sssp(scale: u32) {
    println!("== E6: SSSP variants vs sequential baselines ==");
    table_header(&[
        ("workload", 11),
        ("variant", 16),
        ("ms", 9),
        ("relaxations", 11),
        ("supersteps", 10),
    ]);
    let ctx = Context::new(2);
    for w in [Workload::Rmat, Workload::Grid] {
        let g = w.weighted(scale);
        let oracle = sssp::dijkstra(&g, 0);
        let check = |name: &str, r: &sssp::SsspResult| {
            let ok = r
                .dist
                .iter()
                .zip(&oracle.dist)
                .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
            assert!(ok, "{name} diverged from Dijkstra");
        };
        let runs: Vec<(&str, Box<dyn Fn() -> sssp::SsspResult>)> = vec![
            ("dijkstra", Box::new(|| sssp::dijkstra(&g, 0))),
            ("bellman-ford", Box::new(|| sssp::bellman_ford(&g, 0))),
            (
                "bsp (listing 4)",
                Box::new(|| sssp::sssp(execution::par, &ctx, &g, 0)),
            ),
            ("async", Box::new(|| sssp::sssp_async(&ctx, &g, 0))),
            (
                "delta=0.5",
                Box::new(|| sssp::delta_stepping(execution::par, &ctx, &g, 0, 0.5)),
            ),
            (
                "delta=2.0",
                Box::new(|| sssp::delta_stepping(execution::par, &ctx, &g, 0, 2.0)),
            ),
        ];
        for (name, f) in runs {
            let r = f();
            check(name, &r);
            let ms = median_ms(3, || {
                f();
            });
            println!(
                "{:>11}  {name:>16}  {ms:>9.2}  {:>11}  {:>10}",
                w.name(),
                r.relaxations,
                r.stats.iterations
            );
        }
    }
    println!();
}

/// E7 — The full algorithm suite: one abstraction, many algorithms (§V).
fn e7_suite(scale: u32) {
    println!("== E7: algorithm suite (parallel vs sequential baseline, verified) ==");
    table_header(&[
        ("algorithm", 10),
        ("workload", 11),
        ("par ms", 9),
        ("seq ms", 9),
        ("work metric", 24),
    ]);
    let ctx = Context::new(2);
    for w in [Workload::Rmat, Workload::Grid] {
        let sym = w.symmetric(scale);
        let wg = w.weighted(scale);

        // BFS
        let (p, r) = time_ms(|| bfs::bfs(execution::par, &ctx, &sym, 0));
        let (s, oracle) = time_ms(|| bfs::bfs_sequential(&sym, 0));
        assert_eq!(r.level, oracle.level);
        print_suite_row("bfs", w, p, s, &format!("{} edges", r.edges_inspected));

        // SSSP
        let (p, r) = time_ms(|| sssp::sssp(execution::par, &ctx, &wg, 0));
        let (s, d) = time_ms(|| sssp::dijkstra(&wg, 0));
        assert!(sssp::verify_sssp(&wg, 0, &r.dist, 1e-3));
        let _ = d;
        print_suite_row("sssp", w, p, s, &format!("{} relaxations", r.relaxations));

        // PageRank
        let cfg = pagerank::PrConfig::default();
        let (p, r) = time_ms(|| pagerank::pagerank_pull(execution::par, &ctx, &sym, cfg));
        let (s, _) = time_ms(|| pagerank::pagerank_sequential(&sym, cfg));
        assert!(pagerank::verify_pagerank(&sym, &r.rank, cfg.damping, 1e-6));
        print_suite_row(
            "pagerank",
            w,
            p,
            s,
            &format!("{} iterations", r.stats.iterations),
        );

        // Connected components
        let (p, r) = time_ms(|| cc::cc_label_propagation(execution::par, &ctx, &sym));
        let (s, oracle) = time_ms(|| cc::cc_union_find(&sym));
        assert_eq!(r.comp, oracle.comp);
        print_suite_row(
            "cc",
            w,
            p,
            s,
            &format!("{} components", cc::num_components(&r.comp)),
        );

        // Triangle counting
        let (p, r) = time_ms(|| tc::triangle_count(execution::par, &ctx, &sym, true));
        let (s, r2) = time_ms(|| tc::triangle_count(execution::seq, &ctx, &sym, false));
        assert_eq!(r.triangles, r2.triangles);
        print_suite_row("tc", w, p, s, &format!("{} triangles", r.triangles));

        // k-core
        let (p, r) = time_ms(|| kcore::kcore_peel(execution::par, &ctx, &sym));
        let (s, oracle) = time_ms(|| kcore::kcore_sequential(&sym));
        assert_eq!(r.core, oracle.core);
        let kmax = r.core.iter().max().copied().unwrap_or(0);
        print_suite_row("kcore", w, p, s, &format!("max core {kmax}"));

        // Coloring
        let (p, r) = time_ms(|| color::color_greedy(execution::par, &ctx, &sym));
        let (s, r2) = time_ms(|| color::color_sequential(&sym));
        assert!(color::verify_coloring(&sym, &r.color));
        print_suite_row(
            "color",
            w,
            p,
            s,
            &format!("{} colors (seq {})", r.num_colors, r2.num_colors),
        );

        // MST
        let (p, r) = time_ms(|| mst::boruvka(execution::par, &ctx, &wg));
        let (s, k) = time_ms(|| mst::kruskal(&wg));
        assert!((r.total_weight - k.total_weight).abs() < 1e-2);
        print_suite_row("mst", w, p, s, &format!("weight {:.1}", r.total_weight));

        // HITS
        let (p, r) =
            time_ms(|| hits::hits(execution::par, &ctx, &sym, hits::HitsConfig::default()));
        let (s, _) = time_ms(|| {
            let c = Context::sequential();
            hits::hits(execution::seq, &c, &sym, hits::HitsConfig::default())
        });
        print_suite_row(
            "hits",
            w,
            p,
            s,
            &format!("{} iterations", r.stats.iterations),
        );

        // SpMV
        let x: Vec<f32> = (0..wg.get_num_vertices())
            .map(|i| (i % 13) as f32)
            .collect();
        let (p, y) = time_ms(|| spmv::spmv(execution::par, &ctx, &wg, &x));
        let (s, y2) = time_ms(|| spmv::spmv_sequential(&wg, &x));
        assert_eq!(y, y2);
        print_suite_row("spmv", w, p, s, &format!("{} rows", y.len()));

        // SSWP
        let (p, r) = time_ms(|| sswp::sswp(execution::par, &ctx, &wg, 0));
        let (s, oracle) = time_ms(|| sswp::sswp_sequential(&wg, 0));
        assert_eq!(r.width, oracle.width);
        print_suite_row(
            "sswp",
            w,
            p,
            s,
            &format!("{} supersteps", r.stats.iterations),
        );

        // Betweenness (sampled sources — exact BC is quadratic).
        let sources: Vec<VertexId> = (0..8).collect();
        let (p, r) =
            time_ms(|| essentials_algos::bc::betweenness(execution::par, &ctx, &sym, &sources));
        let (s, oracle) = time_ms(|| essentials_algos::bc::betweenness_sequential(&sym, &sources));
        let ok = r
            .iter()
            .zip(&oracle)
            .all(|(a, b)| (a - b).abs() < 1e-6 * (1.0 + a.abs()));
        assert!(ok);
        print_suite_row("bc(8 src)", w, p, s, "sampled Brandes");
    }
    println!();
}

fn print_suite_row(algo: &str, w: Workload, par_ms: f64, seq_ms: f64, metric: &str) {
    println!(
        "{algo:>10}  {:>11}  {par_ms:>9.2}  {seq_ms:>9.2}  {metric:>24}",
        w.name()
    );
}

/// E8 — Message-passing vertex programs vs shared memory (Pregel row).
fn e8_message_passing(scale: u32) {
    println!("== E8: message-passing (Pregel ranks) vs shared memory ==");
    table_header(&[
        ("workload", 11),
        ("algo", 9),
        ("ranks", 5),
        ("ms", 9),
        ("supersteps", 10),
        ("msgs", 10),
        ("remote", 10),
    ]);
    let ctx = Context::new(2);
    for w in [Workload::Rmat, Workload::Grid] {
        let g = w.weighted(scale);
        let bfs_oracle = bfs::bfs(execution::par, &ctx, &g, 0);
        let sssp_oracle = sssp::sssp(execution::par, &ctx, &g, 0);
        for k in [1usize, 2, 4] {
            let p = multilevel_partition(&g, MultilevelConfig::new(k));
            let pg = PartitionedGraph::build(&g, &p);

            let (ms, (levels, stats)) = time_ms(|| mp_bfs(&pg, 0));
            assert_eq!(levels, bfs_oracle.level);
            println!(
                "{:>11}  {:>9}  {k:>5}  {ms:>9.2}  {:>10}  {:>10}  {:>10}",
                w.name(),
                "mp-bfs",
                stats.supersteps,
                stats.messages_total,
                stats.messages_remote
            );

            let (ms, (dist, stats)) = time_ms(|| mp_sssp(&pg, 0));
            let ok = dist
                .iter()
                .zip(&sssp_oracle.dist)
                .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
            assert!(ok, "mp-sssp diverged");
            println!(
                "{:>11}  {:>9}  {k:>5}  {ms:>9.2}  {:>10}  {:>10}  {:>10}",
                w.name(),
                "mp-sssp",
                stats.supersteps,
                stats.messages_total,
                stats.messages_remote
            );

            let (ms, (_, stats)) = time_ms(|| mp_pagerank(&pg, 0.85, 20));
            println!(
                "{:>11}  {:>9}  {k:>5}  {ms:>9.2}  {:>10}  {:>10}  {:>10}",
                w.name(),
                "mp-pr(20)",
                stats.supersteps,
                stats.messages_total,
                stats.messages_remote
            );

            // Sender-side combining (Pregel combiners).
            let (ms, (dist, stats)) = time_ms(|| mp_sssp_combined(&pg, 0));
            let ok = dist
                .iter()
                .zip(&sssp_oracle.dist)
                .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
            assert!(ok, "mp-sssp-combined diverged");
            println!(
                "{:>11}  {:>9}  {k:>5}  {ms:>9.2}  {:>10}  {:>10}  {:>10}",
                w.name(),
                "mp-sssp+c",
                stats.supersteps,
                stats.messages_total,
                stats.messages_remote
            );

            // Asynchronous message passing (no supersteps at all).
            let (ms, (levels, stats)) = time_ms(|| async_mp_bfs(&pg, 0));
            assert_eq!(levels, bfs_oracle.level, "async-mp-bfs diverged");
            println!(
                "{:>11}  {:>9}  {k:>5}  {ms:>9.2}  {:>10}  {:>10}  {:>10}",
                w.name(),
                "amp-bfs",
                "-",
                stats.messages_processed,
                stats.messages_remote
            );
            let (ms, (dist, stats)) = time_ms(|| async_mp_sssp(&pg, 0));
            let ok = dist
                .iter()
                .zip(&sssp_oracle.dist)
                .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
            assert!(ok, "async-mp-sssp diverged");
            println!(
                "{:>11}  {:>9}  {k:>5}  {ms:>9.2}  {:>10}  {:>10}  {:>10}",
                w.name(),
                "amp-sssp",
                "-",
                stats.messages_processed,
                stats.messages_remote
            );
        }
        // Shared-memory equivalents for reference.
        let (ms, _) = time_ms(|| bfs::bfs(execution::par, &ctx, &g, 0));
        println!(
            "{:>11}  {:>9}  {:>5}  {ms:>9.2}  {:>10}  {:>10}  {:>10}",
            w.name(),
            "shm-bfs",
            "-",
            "-",
            "-",
            "-"
        );
        let (ms, _) = time_ms(|| sssp::sssp(execution::par, &ctx, &g, 0));
        println!(
            "{:>11}  {:>9}  {:>5}  {ms:>9.2}  {:>10}  {:>10}  {:>10}",
            w.name(),
            "shm-sssp",
            "-",
            "-",
            "-",
            "-"
        );
    }
    println!();
}
