//! Social-network analytics: the skewed power-law regime.
//!
//! Generates an RMAT graph standing in for a social network and runs the
//! ranking/structure side of the suite: PageRank under its three plans
//! (pull scan, blocked gather, push scatter — one body, same fixpoint,
//! different traversal direction and memory behaviour), HITS, triangle
//! counting, k-core decomposition, and greedy coloring. Prints the
//! influencer table and structural summaries.
//!
//! Run: `cargo run --release --example social_ranking`

use essentials::prelude::*;
use essentials_algos::{color, hits, kcore, pagerank, tc};
use essentials_gen as gen;

fn main() {
    // A skewed "who-follows-whom" network: 2^12 users, ~16 edges each.
    let coo = gen::rmat(12, 16, gen::RmatParams::default(), 42);
    let g = GraphBuilder::from_coo(coo)
        .remove_self_loops()
        .deduplicate()
        .with_csc() // pull traversals need the transpose
        .build();
    let stats = essentials::graph::properties::degree_stats(g.csr());
    println!(
        "network: {} users, {} follows, max degree {} (skew {:.1})",
        g.get_num_vertices(),
        g.get_num_edges(),
        stats.max,
        stats.skew
    );

    let ctx = Context::default();

    // --- PageRank: every plan converges to the same fixpoint -------------
    let cfg = pagerank::PrConfig::default();
    let pull = pagerank::pagerank(execution::par, &ctx, &g, cfg, DirectionPolicy::default());
    assert!(pagerank::verify_pagerank(&g, &pull.rank, cfg.damping, 1e-7));
    println!("\nPageRank (one body, three gathers):");
    for d in [Direction::Pull, Direction::BlockedPull, Direction::Push] {
        let r = pagerank::pagerank(execution::par, &ctx, &g, cfg, DirectionPolicy::fixed(d));
        let max_diff = pull
            .rank
            .iter()
            .zip(&r.rank)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff < 1e-7,
            "{d:?} plan diverged from pull: {max_diff:.2e}"
        );
        println!(
            "  {:<12} {:>3} iters, max |rank - pull| = {max_diff:.2e}",
            format!("{:?}", r.direction),
            r.stats.iterations
        );
    }
    let mut top: Vec<(usize, f64)> = pull.rank.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("top influencers (vertex, rank, out-degree):");
    for &(v, r) in top.iter().take(5) {
        println!("  v{v:<6} {r:.5}  deg {}", g.out_degree(v as VertexId));
    }

    // --- HITS: hubs follow many authorities, authorities are followed ----
    let h = hits::hits(
        execution::par,
        &ctx,
        &g,
        hits::HitsConfig::default(),
        DirectionPolicy::default(),
    );
    let argmax = |xs: &[f64]| {
        let best = xs
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1));
        best.map_or(0, |(v, _)| v)
    };
    let (hub, auth) = (argmax(&h.hub), argmax(&h.authority));
    println!(
        "\nHITS: {} iters; top hub v{hub} (out-degree {}), top authority v{auth} (in-degree {})",
        h.stats.iterations,
        g.out_degree(hub as VertexId),
        g.in_degree(auth as VertexId)
    );

    // --- Structure: triangles, cores, coloring ---------------------------
    let sym = GraphBuilder::from_coo(g.csr().to_coo())
        .remove_self_loops()
        .symmetrize()
        .deduplicate()
        .build();
    let tri = tc::triangle_count(execution::par, &ctx, &sym);
    println!(
        "\ntriangles: {} ({} adjacency intersections)",
        tri.triangles, tri.intersections
    );

    let cores = kcore::kcore_peel(execution::par, &ctx, &sym);
    let kmax = cores.core.iter().copied().max().unwrap_or(0);
    let in_kmax = cores.core.iter().filter(|&&c| c == kmax).count();
    println!(
        "k-core: max core {kmax} ({in_kmax} members, {} peel rounds)",
        cores.rounds
    );

    let coloring = color::color_greedy(execution::par, &ctx, &sym);
    assert!(color::verify_coloring(&sym, &coloring.color));
    println!(
        "coloring: {} colors in {} rounds (greedy bound {})",
        coloring.num_colors,
        coloring.rounds,
        color::greedy_bound(&sym)
    );
}
