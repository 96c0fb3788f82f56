//! `essentials` — the command-line front end.
//!
//! ```text
//! essentials generate <family> <args..> -o graph.mtx     synthesize a graph
//! essentials stats <file>                                structural summary
//! essentials convert <in> <out>                          mtx/txt/esnt by extension
//! essentials bfs|sssp|pagerank|cc|tc <file> [opts]       run analytics
//! essentials partition <file> -k <parts>                 multilevel partition
//! ```
//!
//! Formats are chosen by extension: `.mtx` (MatrixMarket), `.txt`/`.el`
//! (edge list), `.esnt` (binary snapshot). Argument parsing is deliberately
//! dependency-free. `bfs`, `sssp --mode bsp|delta` and `cc` load a CSR only and
//! run the default plan, which pushes throughout on such a graph; `pagerank`
//! builds the CSC and pulls.

use std::io::BufReader;
use std::process::ExitCode;

use essentials::prelude::*;
use essentials_algos::{bfs, cc, pagerank, sssp, tc};
use essentials_gen as gen;
use essentials_io as eio;
use essentials_partition::{balance, edge_cut, multilevel_partition, MultilevelConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  essentials generate <rmat|grid|gnm|ws|ba> <params..> -o <file> [--seed N] [--weights LO..HI]
      rmat <scale> <edge_factor> | grid <rows> <cols> | gnm <n> <m>
      ws <n> <k> <beta>          | ba <n> <m>
  essentials stats <file>
  essentials convert <in> <out>
  essentials bfs <file> [--source V]
  essentials sssp <file> [--source V] [--mode bsp|async|delta]
  essentials pagerank <file> [--iters N]
  essentials cc <file>
  essentials tc <file>
  essentials partition <file> -k <parts>";

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    let rest = &args[1..];
    match cmd.as_str() {
        "generate" => generate(rest),
        "stats" => stats(rest),
        "convert" => convert(rest),
        "bfs" => run_bfs(rest),
        "sssp" => run_sssp(rest),
        "pagerank" => run_pagerank(rest),
        "cc" => run_cc(rest),
        "tc" => run_tc(rest),
        "partition" => run_partition(rest),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Fetches `--flag value` from an argument list.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: '{s}'"))
}

fn load(path: &str) -> Result<Coo<f32>, String> {
    let err = |e: String| format!("reading {path}: {e}");
    if path.ends_with(".mtx") {
        let f = std::fs::File::open(path).map_err(|e| err(e.to_string()))?;
        Ok(eio::read_matrix_market(BufReader::new(f))
            .map_err(|e| err(e.to_string()))?
            .0)
    } else if path.ends_with(".esnt") {
        let bytes = std::fs::read(path).map_err(|e| err(e.to_string()))?;
        Ok(eio::read_binary(&bytes)
            .map_err(|e| err(e.to_string()))?
            .to_coo())
    } else {
        let f = std::fs::File::open(path).map_err(|e| err(e.to_string()))?;
        eio::read_edge_list(BufReader::new(f), 0).map_err(|e| err(e.to_string()))
    }
}

fn save(path: &str, coo: &Coo<f32>) -> Result<(), String> {
    let err = |e: std::io::Error| format!("writing {path}: {e}");
    if path.ends_with(".mtx") {
        eio::write_matrix_market(std::fs::File::create(path).map_err(err)?, coo).map_err(err)
    } else if path.ends_with(".esnt") {
        std::fs::write(path, eio::write_binary(&Csr::from_coo(coo))).map_err(err)
    } else {
        eio::write_edge_list(std::fs::File::create(path).map_err(err)?, coo).map_err(err)
    }
}

fn generate(args: &[String]) -> Result<(), String> {
    let family = args.first().ok_or("generate: missing family")?;
    let out = flag(args, "-o").ok_or("generate: missing -o <file>")?;
    let seed: u64 = match flag(args, "--seed") {
        Some(s) => parse(s, "seed")?,
        None => 42,
    };
    let p = |i: usize| -> Result<usize, String> {
        parse(
            args.get(i)
                .ok_or(format!("generate {family}: missing parameter {i}"))?,
            "parameter",
        )
    };
    let coo: Coo<()> = match family.as_str() {
        "rmat" => gen::rmat(p(1)? as u32, p(2)?, gen::RmatParams::default(), seed),
        "grid" => gen::grid2d(p(1)?, p(2)?),
        "gnm" => gen::gnm(p(1)?, p(2)?, seed),
        "ws" => {
            let beta: f64 = parse(args.get(3).ok_or("ws: missing beta")?, "beta")?;
            gen::watts_strogatz(p(1)?, p(2)?, beta, seed)
        }
        "ba" => gen::barabasi_albert(p(1)?, p(2)?, seed),
        other => return Err(format!("unknown family '{other}'")),
    };
    let weighted = match flag(args, "--weights") {
        Some(range) => {
            let (lo, hi) = range.split_once("..").ok_or("--weights wants LO..HI")?;
            gen::hash_weights(&coo, parse(lo, "weight")?, parse(hi, "weight")?, seed)
        }
        None => gen::unit_weights(&coo),
    };
    save(out, &weighted)?;
    println!(
        "wrote {out}: {} vertices, {} edges",
        weighted.num_vertices(),
        weighted.num_edges()
    );
    Ok(())
}

fn stats(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("stats: missing file")?;
    let coo = load(path)?;
    let csr = Csr::from_coo(&coo);
    let d = essentials::graph::properties::degree_stats(&csr);
    println!("file:        {path}");
    println!("vertices:    {}", csr.num_vertices());
    println!("edges:       {}", csr.num_edges());
    println!(
        "degree:      min {} / median {} / mean {:.2} / max {} (skew {:.1})",
        d.min, d.median, d.mean, d.max, d.skew
    );
    println!(
        "self-loops:  {}",
        essentials::graph::properties::count_self_loops(&csr)
    );
    println!(
        "symmetric:   {}",
        essentials::graph::properties::is_symmetric(&csr)
    );
    Ok(())
}

fn convert(args: &[String]) -> Result<(), String> {
    let [input, output] = args else {
        return Err("convert: want <in> <out>".into());
    };
    let coo = load(input)?;
    save(output, &coo)?;
    println!("converted {input} -> {output} ({} edges)", coo.num_edges());
    Ok(())
}

fn source_of(args: &[String]) -> Result<VertexId, String> {
    match flag(args, "--source") {
        Some(s) => parse(s, "source"),
        None => Ok(0),
    }
}

fn run_bfs(args: &[String]) -> Result<(), String> {
    let g = Graph::from_coo(&load(args.first().ok_or("bfs: missing file")?)?);
    let ctx = Context::default();
    let source = source_of(args)?;
    let r = bfs::bfs(execution::par, &ctx, &g, source, DirectionPolicy::default());
    let reached = r.level.iter().filter(|&&l| l != bfs::UNVISITED).count();
    let depth = r
        .level
        .iter()
        .filter(|&&l| l != bfs::UNVISITED)
        .max()
        .unwrap_or(&0);
    println!(
        "bfs from {source}: reached {reached}/{} vertices, depth {depth}, {} iterations, {} edges inspected",
        g.get_num_vertices(),
        r.stats.iterations,
        r.edges_inspected
    );
    Ok(())
}

fn run_sssp(args: &[String]) -> Result<(), String> {
    let g = Graph::from_coo(&load(args.first().ok_or("sssp: missing file")?)?);
    let ctx = Context::default();
    let source = source_of(args)?;
    let mode = flag(args, "--mode").unwrap_or("bsp");
    let plan = DirectionPolicy::default();
    let r = match mode {
        "bsp" => sssp::sssp(execution::par, &ctx, &g, source, plan),
        "async" => sssp::sssp_async(&ctx, &g, source),
        "delta" => sssp::delta_stepping(execution::par, &ctx, &g, source, plan, 2.0),
        other => return Err(format!("unknown sssp mode '{other}'")),
    };
    let reached = r.dist.iter().filter(|d| d.is_finite()).count();
    let max = r
        .dist
        .iter()
        .filter(|d| d.is_finite())
        .fold(0.0f32, |a, &b| a.max(b));
    println!(
        "sssp[{mode}] from {source}: reached {reached}/{}, max distance {max:.3}, {} relaxations",
        g.get_num_vertices(),
        r.relaxations
    );
    Ok(())
}

fn run_pagerank(args: &[String]) -> Result<(), String> {
    let g = Graph::from_coo(&load(args.first().ok_or("pagerank: missing file")?)?).with_csc();
    let ctx = Context::default();
    let mut cfg = pagerank::PrConfig::default();
    if let Some(iters) = flag(args, "--iters") {
        cfg.max_iterations = parse(iters, "iters")?;
    }
    let r = pagerank::pagerank_pull(execution::par, &ctx, &g, cfg);
    let mut top: Vec<(usize, f64)> = r.rank.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!(
        "pagerank: converged in {} iterations (err {:.2e})",
        r.stats.iterations, r.final_error
    );
    for (v, score) in top.iter().take(5) {
        println!("  v{v:<8} {score:.6}");
    }
    Ok(())
}

fn run_cc(args: &[String]) -> Result<(), String> {
    let coo = load(args.first().ok_or("cc: missing file")?)?;
    let g = GraphBuilder::from_coo(coo)
        .symmetrize()
        .deduplicate()
        .build();
    let ctx = Context::default();
    let r = cc::cc_label_propagation(execution::par, &ctx, &g, DirectionPolicy::default());
    let mut sizes: std::collections::HashMap<VertexId, usize> = Default::default();
    for &c in &r.comp {
        *sizes.entry(c).or_default() += 1;
    }
    let largest = sizes.values().max().copied().unwrap_or(0);
    println!(
        "cc: {} components, largest {} ({:.1}%)",
        sizes.len(),
        largest,
        100.0 * largest as f64 / r.comp.len().max(1) as f64
    );
    Ok(())
}

fn run_tc(args: &[String]) -> Result<(), String> {
    let coo = load(args.first().ok_or("tc: missing file")?)?;
    let g = GraphBuilder::from_coo(coo)
        .remove_self_loops()
        .symmetrize()
        .deduplicate()
        .build();
    let ctx = Context::default();
    let r = tc::triangle_count(execution::par, &ctx, &g);
    println!("tc: {} triangles", r.triangles);
    Ok(())
}

fn run_partition(args: &[String]) -> Result<(), String> {
    let coo = load(args.first().ok_or("partition: missing file")?)?;
    let g = GraphBuilder::from_coo(coo)
        .symmetrize()
        .deduplicate()
        .build();
    let k: usize = parse(flag(args, "-k").ok_or("partition: missing -k")?, "k")?;
    let p = multilevel_partition(&g, MultilevelConfig::new(k));
    println!(
        "partition k={k}: edge-cut {} / {} edges, balance {:.3}, sizes {:?}",
        edge_cut(&g, &p),
        g.get_num_edges(),
        balance(&p),
        p.part_sizes()
    );
    Ok(())
}
