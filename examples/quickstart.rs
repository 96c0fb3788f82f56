//! Quickstart: the paper's Listings 1–4 end to end.
//!
//! Builds a small weighted graph behind the native-graph API (Listing 1),
//! seeds a frontier (Listing 2), and runs the Listing-4 SSSP — a
//! bulk-synchronous loop around the policy-parameterized `neighbors_expand`
//! operator (Listing 3) — then cross-checks against Dijkstra.
//!
//! Run: `cargo run --release --example quickstart`

use essentials::prelude::*;
use essentials_algos::sssp::{dijkstra, sssp, verify_sssp};

fn main() {
    // Listing 1: a graph stored as CSR, queried through a graph API.
    // (The builder normalizes input and can stack CSC/COO views.)
    let g: Graph<f32> = GraphBuilder::new(7)
        .edges([
            (0, 1, 4.0),
            (0, 2, 1.0),
            (2, 1, 2.0),
            (1, 3, 1.0),
            (2, 3, 5.0),
            (3, 4, 3.0),
            (2, 5, 8.0),
            (5, 4, 1.0),
            (4, 6, 2.0),
        ])
        .build();
    println!(
        "graph: {} vertices, {} edges",
        g.get_num_vertices(),
        g.get_num_edges()
    );
    let e = g.get_edges(0).start;
    println!(
        "edge {e}: 0 -> {} (weight {})",
        g.get_dest_vertex(e),
        g.get_edge_weight(e)
    );

    // Listing 4: parallel SSSP with the bulk-synchronous policy.
    let ctx = Context::default();
    let plan = DirectionPolicy::default();
    let result = sssp(execution::par, &ctx, &g, 0, plan);
    println!(
        "\nSSSP from vertex 0 ({} supersteps):",
        result.stats.iterations
    );
    for (v, d) in result.dist.iter().enumerate() {
        println!("  dist[{v}] = {d}");
    }

    // Verify: fixpoint check + agreement with the sequential oracle.
    assert!(verify_sssp(&g, 0, &result.dist, 1e-6));
    let oracle = dijkstra(&g, 0);
    assert_eq!(result.dist, oracle.dist);
    println!("\nverified against Dijkstra ✓");

    // The policy is a type: the same call runs sequentially or
    // asynchronously with identical results.
    let seq = sssp(execution::seq, &ctx, &g, 0, plan);
    let nosync = sssp(execution::par_nosync, &ctx, &g, 0, plan);
    assert_eq!(seq.dist, result.dist);
    assert_eq!(nosync.dist, result.dist);
    println!("policy equivalence (seq == par == par_nosync) ✓");
}
