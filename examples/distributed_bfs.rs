//! Message-passing analytics over a partitioned graph (§III-B + §III-D).
//!
//! Partitions a mesh two ways — random (the baseline heuristic) and
//! multilevel (the METIS-family heuristic built in `essentials-partition`)
//! — then runs Pregel-style BFS and SSSP on thread-ranks that communicate
//! only through mailboxes. Shows the paper's §III-D claim in action (the
//! partitioned graph answers the same API) and how edge-cut predicts
//! message volume.
//!
//! Run: `cargo run --release --example distributed_bfs`

use essentials::prelude::*;
use essentials_gen as gen;
use essentials_mp::algorithms::{mp_bfs, mp_sssp};
use essentials_partition::{
    edge_cut, multilevel_partition, random_partition, MultilevelConfig, PartitionedGraph,
};

fn main() {
    let coo = gen::grid2d(64, 64);
    let g = Graph::from_coo(&gen::unit_weights(&coo));
    let n = g.get_num_vertices();
    println!("mesh: {n} vertices, {} edges", g.get_num_edges());

    let ctx = Context::default();
    let push = DirectionPolicy::fixed(Direction::Push);
    let oracle = essentials_algos::bfs::bfs(execution::par, &ctx, &g, 0, push);

    println!(
        "\n{:<14} {:>6} {:>10} {:>12} {:>12}",
        "partitioner", "k", "edge-cut", "msgs total", "msgs remote"
    );
    for k in [2, 4, 8] {
        for (name, partitioning) in [
            ("random", random_partition(n, k, 1)),
            (
                "multilevel",
                multilevel_partition(&g, MultilevelConfig::new(k)),
            ),
        ] {
            let cut = edge_cut(&g, &partitioning);
            let pg = PartitionedGraph::build(&g, &partitioning);
            // §III-D: the partitioned graph answers the same queries.
            assert_eq!(pg.out_neighbors(100), g.out_neighbors(100));
            let (levels, stats) = mp_bfs(&pg, 0);
            assert_eq!(
                levels, oracle.level,
                "distributed BFS must match shared-memory BFS"
            );
            println!(
                "{name:<14} {k:>6} {cut:>10} {:>12} {:>12}",
                stats.messages_total, stats.messages_remote
            );
        }
    }

    // Weighted SSSP through the same machinery.
    let p = multilevel_partition(&g, MultilevelConfig::new(4));
    let pg = PartitionedGraph::build(&g, &p);
    let (dist, stats) = mp_sssp(&pg, 0);
    let shared = essentials_algos::sssp::sssp(execution::par, &ctx, &g, 0, push);
    let agree = dist
        .iter()
        .zip(&shared.dist)
        .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-4);
    assert!(agree);
    println!(
        "\ndistributed SSSP over 4 ranks: {} supersteps, {} messages — matches shared memory ✓",
        stats.supersteps, stats.messages_total
    );
}
