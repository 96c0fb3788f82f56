//! Workspace-level property-based tests: random graphs in, cross-variant
//! agreement and solution invariants out.

use essentials::prelude::*;
use essentials_algos::{bfs, cc, mst, sssp, tc};
use proptest::prelude::*;

/// The fixed-push plan: the traversal of the paper's listings, CSR only.
fn push() -> DirectionPolicy {
    DirectionPolicy::fixed(Direction::Push)
}

/// Random weighted directed graph: n in [1, 60], up to 300 edges,
/// weights in (0, 4].
fn arb_graph() -> impl Strategy<Value = Graph<f32>> {
    (1usize..60).prop_flat_map(|n| {
        let edge = (0..n as VertexId, 0..n as VertexId, 1u32..=400);
        prop::collection::vec(edge, 0..300).prop_map(move |edges| {
            let coo = Coo::from_edges(
                n,
                edges.into_iter().map(|(s, d, w)| (s, d, w as f32 / 100.0)),
            );
            Graph::from_coo(&coo).with_csc()
        })
    })
}

/// The same, symmetrized and unweighted (for undirected algorithms).
fn arb_sym_graph() -> impl Strategy<Value = Graph<()>> {
    (2usize..50).prop_flat_map(|n| {
        let edge = (0..n as VertexId, 0..n as VertexId);
        prop::collection::vec(edge, 0..200).prop_map(move |edges| {
            GraphBuilder::from_coo(Coo::from_edges(
                n,
                edges.into_iter().map(|(s, d)| (s, d, ())),
            ))
            .remove_self_loops()
            .symmetrize()
            .deduplicate()
            .with_csc()
            .build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sssp_fixpoint_and_oracle_agreement(g in arb_graph()) {
        let ctx = Context::new(2);
        let par = sssp::sssp(execution::par, &ctx, &g, 0, push());
        prop_assert!(sssp::verify_sssp(&g, 0, &par.dist, 1e-3));
        let oracle = sssp::dijkstra(&g, 0);
        for (a, b) in par.dist.iter().zip(&oracle.dist) {
            prop_assert!((a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-3);
        }
        let asy = sssp::sssp_async(&ctx, &g, 0);
        prop_assert_eq!(asy.dist, par.dist);
    }

    #[test]
    fn bfs_levels_are_shortest_hop_counts(g in arb_graph()) {
        let ctx = Context::new(2);
        let par = bfs::bfs(execution::par, &ctx, &g, 0, push());
        prop_assert!(bfs::verify_bfs(&g, 0, &par.level));
        prop_assert_eq!(&par.level, &bfs::bfs_sequential(&g, 0).level);
        // BFS on unit weights == SSSP distances.
        let unit = {
            let coo = g.csr().to_coo();
            let mut u = Coo::new(coo.num_vertices());
            for (s, d, _) in coo.iter() { u.push(s, d, 1.0f32); }
            Graph::from_coo(&u)
        };
        let dist = sssp::sssp(execution::par, &ctx, &unit, 0, push()).dist;
        for (l, d) in par.level.iter().zip(&dist) {
            if *l == bfs::UNVISITED {
                prop_assert!(d.is_infinite());
            } else {
                prop_assert_eq!(*l as f32, *d);
            }
        }
    }

    #[test]
    fn cc_is_an_equivalence_respecting_edges(g in arb_sym_graph()) {
        let ctx = Context::new(2);
        let lp = cc::cc_label_propagation(execution::par, &ctx, &g, push());
        prop_assert!(cc::verify_cc(&g, &lp.comp));
        prop_assert_eq!(&lp.comp, &cc::cc_union_find(&g).comp);
        prop_assert_eq!(&lp.comp, &cc::cc_hooking(execution::par, &ctx, &g).comp);
        // Component count + edges is consistent with forests: each component
        // of size s needs >= s-1 undirected edges... (only check count > 0).
        prop_assert!(cc::num_components(&lp.comp) >= 1);
    }

    #[test]
    fn mst_weight_is_minimal_among_variants(g in arb_sym_graph()) {
        // Attach symmetric hash weights.
        let coo = g.csr().to_coo();
        let mut unweighted = Coo::new(coo.num_vertices());
        for (s, d, _) in coo.iter() { unweighted.push(s, d, ()); }
        let wg = Graph::from_coo(&essentials_gen::hash_weights(&unweighted, 0.1, 5.0, 9));
        let ctx = Context::new(2);
        let b = mst::boruvka(execution::par, &ctx, &wg);
        let k = mst::kruskal(&wg);
        prop_assert!((b.total_weight - k.total_weight).abs() < 1e-3);
        prop_assert!(mst::verify_forest(&wg, &b));
        prop_assert_eq!(b.edges.len(), k.edges.len());
    }

    #[test]
    fn triangle_count_matches_naive(g in arb_sym_graph()) {
        let ctx = Context::new(2);
        let fast = tc::triangle_count(execution::par, &ctx, &g, false).triangles;
        prop_assert_eq!(fast, tc::triangle_count_naive(&g));
    }

    #[test]
    fn partitioning_is_always_a_valid_cover(g in arb_sym_graph()) {
        use essentials_partition::{multilevel_partition, MultilevelConfig};
        for k in [1usize, 2, 5] {
            let p = multilevel_partition(&g, MultilevelConfig::new(k));
            prop_assert_eq!(p.assignment.len(), g.get_num_vertices());
            prop_assert!(p.assignment.iter().all(|&x| (x as usize) < k));
            prop_assert_eq!(p.part_sizes().iter().sum::<usize>(), g.get_num_vertices());
        }
    }

    #[test]
    fn io_round_trips_arbitrary_graphs(g in arb_graph()) {
        // Binary.
        let bytes = essentials_io::write_binary(g.csr());
        prop_assert_eq!(&essentials_io::read_binary(&bytes).unwrap(), g.csr());
        // Matrix Market (via COO).
        let coo = g.csr().to_coo();
        let mut mm = Vec::new();
        essentials_io::write_matrix_market(&mut mm, &coo).unwrap();
        let (back, _) = essentials_io::read_matrix_market(&mm[..]).unwrap();
        prop_assert_eq!(Csr::from_coo(&back), g.csr().clone());
        // Edge list.
        let mut el = Vec::new();
        essentials_io::write_edge_list(&mut el, &coo).unwrap();
        let back = essentials_io::read_edge_list(&el[..], g.get_num_vertices()).unwrap();
        prop_assert_eq!(Csr::from_coo(&back), g.csr().clone());
    }
}
