//! Full-pipeline integration: generate → persist/reload → partition →
//! message-passing execution ≡ shared-memory execution ≡ sequential oracle.
//! Everything a downstream user chains together, in one flow per scenario.

use essentials::prelude::*;
use essentials_algos::{bfs, cc, pagerank, sssp};
use essentials_gen as gen;
use essentials_io as io;
use essentials_mp::algorithms::{mp_bfs, mp_sssp};
use essentials_partition::{
    edge_cut, multilevel_partition, random_partition, MultilevelConfig, PartitionedGraph,
};

/// The fixed-push plan: the traversal of the paper's listings, CSR only.
fn push() -> DirectionPolicy {
    DirectionPolicy::fixed(Direction::Push)
}

fn weighted_rmat(scale: u32, seed: u64) -> Graph<f32> {
    let mut coo = gen::rmat(scale, 8, gen::RmatParams::default(), seed);
    coo.remove_self_loops();
    coo.sort_and_dedup();
    Graph::from_coo(&gen::uniform_weights(&coo, 0.1, 3.0, seed)).with_csc()
}

#[test]
fn generate_save_load_compute() {
    let g = weighted_rmat(9, 5);
    // Binary snapshot round trip.
    let bytes = io::write_binary(g.csr());
    let reloaded = Graph::from_csr(io::read_binary(&bytes).unwrap());
    assert_eq!(reloaded.csr(), g.csr());
    // Matrix Market round trip.
    let mut mm = Vec::new();
    io::write_matrix_market(&mut mm, &g.csr().to_coo()).unwrap();
    let (coo, _) = io::read_matrix_market(&mm[..]).unwrap();
    let reloaded2 = Graph::from_coo(&coo);
    assert_eq!(reloaded2.csr(), g.csr());
    // The reloaded graph computes the same distances.
    let ctx = Context::new(2);
    let a = sssp::sssp(execution::par, &ctx, &g, 0, push());
    let b = sssp::sssp(execution::par, &ctx, &reloaded, 0, push());
    assert_eq!(a.dist, b.dist);
}

#[test]
fn distributed_equals_shared_equals_sequential() {
    let g = weighted_rmat(9, 11);
    let ctx = Context::new(4);
    let oracle = sssp::dijkstra(&g, 0);

    // Shared memory, all policies.
    for dist in [
        sssp::sssp(execution::seq, &ctx, &g, 0, push()).dist,
        sssp::sssp(execution::par, &ctx, &g, 0, push()).dist,
        sssp::sssp_async(&ctx, &g, 0).dist,
    ] {
        assert!(dist
            .iter()
            .zip(&oracle.dist)
            .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3));
    }

    // Message passing over every partitioner and rank count.
    let n = g.get_num_vertices();
    for partitioning in [
        random_partition(n, 3, 2),
        multilevel_partition(&g, MultilevelConfig::new(4)),
    ] {
        let pg = PartitionedGraph::build(&g, &partitioning);
        let (dist, stats) = mp_sssp(&ctx, &pg, 0);
        assert!(dist
            .iter()
            .zip(&oracle.dist)
            .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3));
        assert!(stats.messages_total > 0);
    }
}

#[test]
fn partition_quality_flows_through_to_message_volume() {
    let g = Graph::<()>::from_coo(&gen::grid2d(40, 40)).with_csc();
    let n = g.get_num_vertices();
    let rnd = random_partition(n, 4, 1);
    let ml = multilevel_partition(&g, MultilevelConfig::new(4));
    assert!(edge_cut(&g, &ml) < edge_cut(&g, &rnd) / 3);

    let ctx = Context::new(2);
    let (lv_rnd, st_rnd) = mp_bfs(&ctx, &PartitionedGraph::build(&g, &rnd), 0);
    let (lv_ml, st_ml) = mp_bfs(&ctx, &PartitionedGraph::build(&g, &ml), 0);
    assert_eq!(lv_rnd, lv_ml);
    assert!(st_ml.messages_remote < st_rnd.messages_remote / 3);
    // Total message volume is partition-independent (one per edge for BFS).
    assert_eq!(st_rnd.messages_total, st_ml.messages_total);
}

#[test]
fn undirected_pipeline_cc_and_pagerank() {
    // Watts-Strogatz is connected by construction at beta=0.1.
    let coo = gen::watts_strogatz(500, 3, 0.1, 3);
    let g = GraphBuilder::from_coo(coo).deduplicate().with_csc().build();
    let ctx = Context::new(2);

    let comp = cc::cc_label_propagation(execution::par, &ctx, &g, push());
    assert_eq!(cc::num_components(&comp.comp), 1);
    assert!(cc::verify_cc(&g, &comp.comp));

    let pr = pagerank::pagerank_pull(execution::par, &ctx, &g, pagerank::PrConfig::default());
    assert!(pagerank::verify_pagerank(&g, &pr.rank, 0.85, 1e-7));

    let b = bfs::bfs(execution::par, &ctx, &g, 42, push());
    assert!(b.level.iter().all(|&l| l != bfs::UNVISITED));
}

#[test]
fn partitioned_graph_is_a_drop_in_representation() {
    // §III-D: algorithms can run directly on the partitioned representation
    // through the graph traits (the delegation path), not only through MP.
    let g = weighted_rmat(8, 7);
    let p = multilevel_partition(&g, MultilevelConfig::new(3));
    let pg = PartitionedGraph::build(&g, &p);
    let ctx = Context::new(2);
    // neighbors_expand is generic over EdgeWeights: run a full BFS wave.
    let mut frontier = SparseFrontier::single(0);
    let visited = DenseFrontier::new(g.get_num_vertices());
    visited.insert(0);
    let mut waves = Vec::new();
    while !frontier.is_empty() {
        frontier = neighbors_expand(execution::par, &ctx, &pg, &frontier, |_s, d, _e, _w| {
            visited.insert(d)
        });
        waves.push(frontier.len());
    }
    // Same reachable set as the flat graph.
    let flat = bfs::bfs_sequential(&g, 0);
    let reachable = flat.level.iter().filter(|&&l| l != bfs::UNVISITED).count();
    assert_eq!(visited.len(), reachable);
}
