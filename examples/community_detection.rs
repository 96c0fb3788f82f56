//! Community recovery via partitioning: a caveman graph has planted
//! communities (cliques with light rewiring); a good partitioning
//! heuristic should cut almost nothing but the rewired edges, while a
//! random assignment cuts nearly everything. Also shows the partition
//! quality flowing into message-passing volume.
//!
//! Run: `cargo run --release --example community_detection`

use essentials::prelude::*;
use essentials_gen as gen;
use essentials_mp::algorithms::mp_bfs;
use essentials_partition::{
    balance, edge_cut, multilevel_partition, random_partition, MultilevelConfig, PartitionedGraph,
};

fn main() {
    const COMMUNITIES: usize = 8;
    const SIZE: usize = 64;
    let coo = gen::caveman(COMMUNITIES, SIZE, 0.05, 11);
    let g = GraphBuilder::from_coo(coo)
        .remove_self_loops()
        .deduplicate()
        .build();
    println!(
        "caveman graph: {} communities × {} vertices, {} edges (5% rewired)",
        COMMUNITIES,
        SIZE,
        g.get_num_edges()
    );

    let n = g.get_num_vertices();
    let ml = multilevel_partition(&g, MultilevelConfig::new(COMMUNITIES));
    let rnd = random_partition(n, COMMUNITIES, 3);

    println!("\n{:<12} {:>9} {:>9}", "", "edge-cut", "balance");
    for (name, p) in [("multilevel", &ml), ("random", &rnd)] {
        println!("{name:<12} {:>9} {:>9.3}", edge_cut(&g, p), balance(p));
    }

    // How well do the discovered parts match the planted communities?
    // For each part, find its majority community; accuracy = fraction of
    // vertices assigned to their majority part.
    let accuracy = |p: &essentials_partition::Partitioning| -> f64 {
        let mut majority = vec![vec![0usize; COMMUNITIES]; COMMUNITIES];
        for v in 0..n {
            majority[p.assignment[v] as usize][v / SIZE] += 1;
        }
        let agree: usize = majority.iter().map(|row| row.iter().max().unwrap()).sum();
        agree as f64 / n as f64
    };
    println!(
        "\nplanted-community agreement: multilevel {:.1}%, random {:.1}%",
        100.0 * accuracy(&ml),
        100.0 * accuracy(&rnd)
    );

    // The cut difference is exactly the message-volume difference for a
    // distributed traversal.
    let ctx = Context::default();
    let (_, s_ml) = mp_bfs(&ctx, &PartitionedGraph::build(&g, &ml), 0);
    let (_, s_rnd) = mp_bfs(&ctx, &PartitionedGraph::build(&g, &rnd), 0);
    println!(
        "distributed BFS remote messages: multilevel {}, random {}",
        s_ml.messages_remote, s_rnd.messages_remote
    );
}
