//! Property-based tests: message-passing execution must agree with
//! shared-memory/sequential oracles on arbitrary graphs, partitionings,
//! and rank counts — BSP, combined, and asynchronous modes alike.

use essentials_core::Context;
use essentials_graph::{Coo, Graph, GraphBase, VertexId};
use essentials_mp::algorithms::{mp_bfs, mp_bfs_combined, mp_sssp, mp_sssp_combined};
use essentials_mp::async_mp::{async_mp_bfs, async_mp_sssp};
use essentials_partition::{random_partition, PartitionedGraph};
use proptest::prelude::*;

fn arb_weighted_graph() -> impl Strategy<Value = Graph<f32>> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as VertexId, 0..n as VertexId, 1u32..50);
        prop::collection::vec(edge, 0..200).prop_map(move |edges| {
            Graph::from_coo(&Coo::from_edges(
                n,
                edges.into_iter().map(|(s, d, w)| (s, d, w as f32 / 10.0)),
            ))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_mp_sssp_modes_match_dijkstra(
        g in arb_weighted_graph(),
        ranks in 1usize..5,
        pseed in 0u64..8,
    ) {
        let oracle = essentials_algos::sssp::dijkstra(&g, 0).dist;
        let p = random_partition(g.num_vertices(), ranks, pseed);
        let pg = PartitionedGraph::build(&g, &p);
        let ctx = Context::new(2);
        let close = |dist: &[f32]| {
            dist.iter().zip(&oracle).all(|(a, b)| {
                (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-4
            })
        };
        let (bsp, _) = mp_sssp(&ctx, &pg, 0);
        prop_assert!(close(&bsp), "bsp diverged");
        let (comb, sc) = mp_sssp_combined(&ctx, &pg, 0);
        prop_assert!(close(&comb), "combined diverged");
        let (asy, _) = async_mp_sssp(&ctx, &pg, 0);
        prop_assert!(close(&asy), "async diverged");
        // Combining never increases message volume.
        let (_, sp) = mp_sssp(&ctx, &pg, 0);
        prop_assert!(sc.messages_total <= sp.messages_total);
    }

    #[test]
    fn all_mp_bfs_modes_match_sequential(
        g in arb_weighted_graph(),
        ranks in 1usize..5,
        pseed in 0u64..8,
    ) {
        let oracle = essentials_algos::bfs::bfs_sequential(&g, 0).level;
        let p = random_partition(g.num_vertices(), ranks, pseed);
        let pg = PartitionedGraph::build(&g, &p);
        let ctx = Context::new(2);
        let (bsp, _) = mp_bfs(&ctx, &pg, 0);
        prop_assert_eq!(&bsp, &oracle);
        let (comb, _) = mp_bfs_combined(&ctx, &pg, 0);
        prop_assert_eq!(&comb, &oracle);
        let (asy, _) = async_mp_bfs(&ctx, &pg, 0);
        prop_assert_eq!(&asy, &oracle);
    }

    #[test]
    fn remote_messages_equal_zero_with_one_rank(g in arb_weighted_graph()) {
        let p = random_partition(g.num_vertices(), 1, 0);
        let pg = PartitionedGraph::build(&g, &p);
        let ctx = Context::new(2);
        let (_, stats) = mp_bfs(&ctx, &pg, 0);
        prop_assert_eq!(stats.messages_remote, 0);
        let (_, astats) = async_mp_sssp(&ctx, &pg, 0);
        prop_assert_eq!(astats.messages_remote, 0);
    }
}
