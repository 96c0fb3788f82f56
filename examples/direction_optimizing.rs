//! Push vs. pull vs. adaptive traversal (§III-C).
//!
//! Runs one BFS under three plans — fixed push, fixed pull, and the
//! default direction-optimizing [`DirectionPolicy`] — on a power-law graph
//! and a mesh, printing the per-iteration frontier trace and the direction
//! the adaptive plan chose. The RMAT run shows the classic pattern: push
//! through the sparse early frontiers, pull through the dense middle, push
//! again on the tail. A second RMAT pass on the same graph without its CSC
//! shows the engine's fallback: no plan can pull there, so each iteration a
//! plan would pull runs as push, dense where the frontier is fat.
//!
//! Run: `cargo run --release --example direction_optimizing`

use essentials::prelude::*;
use essentials_algos::bfs::{bfs, bfs_sequential};
use essentials_gen as gen;

fn print_trace(r: &essentials_algos::bfs::BfsResult, n: usize) {
    println!("iter  direction   frontier");
    for (i, (dir, len)) in r.directions.iter().zip(&r.stats.frontier_trace).enumerate() {
        let bar = "#".repeat((*len * 40 / n.max(1)).min(40));
        let d = match dir {
            Direction::Push => "push",
            Direction::DensePush => "push·dense",
            Direction::Pull => "PULL",
            Direction::BlockedPull => "PULL·blk",
        };
        println!("{i:>4}  {d:<10} {len:>8} {bar}");
    }
}

fn trace(name: &str, g: &Graph<()>, ctx: &Context) {
    let oracle = bfs_sequential(g, 0);
    let [push, pull, dopt] = [
        DirectionPolicy::fixed(Direction::Push),
        DirectionPolicy::fixed(Direction::Pull),
        DirectionPolicy::default(),
    ]
    .map(|plan| bfs(execution::par, ctx, g, 0, plan));
    for (vname, r) in [("push", &push), ("pull", &pull), ("adaptive", &dopt)] {
        assert_eq!(r.level, oracle.level, "{vname} diverged on {name}");
    }
    println!(
        "\n=== {name}: {} vertices, {} edges ===",
        g.get_num_vertices(),
        g.get_num_edges()
    );
    println!(
        "edges inspected: push {}, pull {}, adaptive {}",
        push.edges_inspected, pull.edges_inspected, dopt.edges_inspected
    );
    print_trace(&dopt, g.get_num_vertices());
}

fn main() {
    let ctx = Context::default();

    // Power-law: dense middle phase → the policy switches to pull.
    let rmat = GraphBuilder::from_coo(gen::rmat(13, 16, gen::RmatParams::default(), 1))
        .remove_self_loops()
        .deduplicate()
        .symmetrize()
        .with_csc()
        .build();
    trace("RMAT-13 (social)", &rmat, &ctx);

    // Same graph without its CSC: no plan can pull there, so the engine runs
    // the push family wherever a plan would pull — all push, dense where fat.
    let csr_only = Graph::from_csr(rmat.csr().clone());
    trace(
        "RMAT-13 without its CSC (pull falls back to push)",
        &csr_only,
        &ctx,
    );

    // Mesh: frontiers never densify → stays sparse push throughout.
    let grid = GraphBuilder::from_coo(gen::grid2d(96, 96))
        .with_csc()
        .build();
    trace("grid 96x96 (road)", &grid, &ctx);
}
