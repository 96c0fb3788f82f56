//! Property-based tests: every partitioner yields a valid cover; the
//! partitioned graph answers exactly the same queries as the flat graph;
//! metrics are internally consistent.

use essentials_graph::{
    Coo, EdgeWeights, Graph, GraphBase, OutAdjacency, OutNeighbors, OutWeights, VertexId,
};
use essentials_partition::{
    balance, contiguous_partition, edge_cut, multilevel_partition, random_partition,
    MultilevelConfig, PartitionedGraph, Partitioning,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph<f32>> {
    (1usize..50).prop_flat_map(|n| {
        let edge = (0..n as VertexId, 0..n as VertexId, 1u32..20);
        prop::collection::vec(edge, 0..250).prop_map(move |edges| {
            Graph::from_coo(&Coo::from_edges(
                n,
                edges.into_iter().map(|(s, d, w)| (s, d, w as f32)),
            ))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn partitioners_produce_valid_covers(g in arb_graph(), k in 1usize..7, seed in 0u64..8) {
        let n = g.num_vertices();
        for p in [
            random_partition(n, k, seed),
            contiguous_partition(n, k),
            multilevel_partition(&g, MultilevelConfig { seed, ..MultilevelConfig::new(k) }),
        ] {
            prop_assert_eq!(p.assignment.len(), n);
            prop_assert!(p.assignment.iter().all(|&x| (x as usize) < k));
            prop_assert_eq!(p.part_sizes().iter().sum::<usize>(), n);
            // Edge cut is bounded by the edge count; balance >= 1 when any
            // part is non-empty.
            prop_assert!(edge_cut(&g, &p) <= g.num_edges());
            if n > 0 {
                prop_assert!(balance(&p) >= 1.0 - 1e-9);
            }
        }
    }

    #[test]
    fn partitioned_graph_is_query_equivalent(g in arb_graph(), k in 1usize..6, seed in 0u64..8) {
        let p = random_partition(g.num_vertices(), k, seed);
        let pg = PartitionedGraph::build(&g, &p);
        prop_assert_eq!(pg.num_vertices(), g.num_vertices());
        prop_assert_eq!(pg.num_edges(), g.num_edges());
        for v in g.vertices() {
            prop_assert_eq!(pg.out_degree(v), g.out_degree(v));
            prop_assert_eq!(pg.out_neighbors(v), g.out_neighbors(v));
            prop_assert_eq!(pg.out_neighbor_weights(v), g.out_neighbor_weights(v));
            let (pr, gr) = (pg.out_edges(v), g.out_edges(v));
            prop_assert_eq!(pr.len(), gr.len());
            for (pe, ge) in pr.zip(gr) {
                prop_assert_eq!(pg.edge_dest(pe), g.edge_dest(ge));
                prop_assert_eq!(pg.edge_weight(pe), g.edge_weight(ge));
            }
        }
        prop_assert_eq!(pg.remote_edges(), edge_cut(&g, &p));
    }

    #[test]
    fn single_part_has_zero_cut_and_perfect_balance(g in arb_graph()) {
        let p = Partitioning::new(vec![0; g.num_vertices()], 1);
        prop_assert_eq!(edge_cut(&g, &p), 0);
        if g.num_vertices() > 0 {
            prop_assert!((balance(&p) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn multilevel_is_deterministic(g in arb_graph(), k in 1usize..5) {
        let a = multilevel_partition(&g, MultilevelConfig::new(k));
        let b = multilevel_partition(&g, MultilevelConfig::new(k));
        prop_assert_eq!(a, b);
    }
}
