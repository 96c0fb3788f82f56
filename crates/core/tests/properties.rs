//! Property-based tests of the operator layer: policy equivalence on
//! arbitrary graphs and frontiers, exactly-once edge iteration by the
//! push, push/pull agreement.

use essentials_core::operators::advance::{
    expand_pull_counted, neighbors_expand, try_expand_push_dense, PullConfig,
};
use essentials_core::operators::compute::fill_indexed;
use essentials_core::operators::filter::filter;
use essentials_core::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Arbitrary weighted graph + a frontier over its vertices.
fn arb_graph_and_frontier() -> impl Strategy<Value = (Graph<f32>, Vec<VertexId>)> {
    (1usize..48).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as VertexId, 0..n as VertexId, 1u32..100), 0..250);
        let frontier = prop::collection::vec(0..n as VertexId, 0..60);
        (edges, frontier).prop_map(move |(edges, frontier)| {
            let coo = Coo::from_edges(
                n,
                edges.into_iter().map(|(s, d, w)| (s, d, w as f32 / 10.0)),
            );
            (Graph::from_coo(&coo).with_csc(), frontier)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn neighbors_expand_policy_equivalence((g, frontier) in arb_graph_and_frontier()) {
        let ctx = Context::new(3);
        let f = SparseFrontier::from_vec(frontier);
        let cond = |_s: VertexId, d: VertexId, _e: EdgeId, w: f32| w > 1.0 && !d.is_multiple_of(3);
        let mut outs = [
            neighbors_expand(execution::seq, &ctx, &g, &f, cond),
            neighbors_expand(execution::par, &ctx, &g, &f, cond),
            neighbors_expand(execution::par_nosync, &ctx, &g, &f, cond),
        ];
        // Multisets must agree exactly (one output entry per admitting edge).
        for out in &mut outs {
            let mut v = std::mem::take(out).into_vec();
            v.sort_unstable();
            *out = SparseFrontier::from_vec(v);
        }
        prop_assert_eq!(&outs[0], &outs[1]);
        prop_assert_eq!(&outs[0], &outs[2]);
    }

    #[test]
    fn push_and_pull_agree_on_the_output_set((g, frontier) in arb_graph_and_frontier()) {
        let ctx = Context::new(2);
        let sparse = SparseFrontier::from_vec(frontier);
        let dense_in = essentials_frontier::convert::sparse_to_dense(
            &sparse, g.get_num_vertices());
        let push =
            try_expand_push_dense(execution::par, &ctx, &g, &sparse, |_, _, _, _| true).unwrap();
        let (pull, _) = expand_pull_counted(
            execution::par,
            &ctx,
            &g,
            &dense_in,
            PullConfig::default(),
            |_| true,
            |_, _, _| true,
        );
        prop_assert_eq!(
            push.iter().collect::<Vec<_>>(),
            pull.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn push_iterates_frontier_edges_exactly_once((g, frontier) in arb_graph_and_frontier()) {
        let ctx = Context::new(3);
        // Deduplicate the frontier (duplicates would legitimately double
        // visit).
        let mut fr = frontier;
        fr.sort_unstable();
        fr.dedup();
        let hits: Vec<AtomicUsize> =
            (0..g.get_num_edges()).map(|_| AtomicUsize::new(0)).collect();
        // The push walks each frontier vertex's row once; the condition
        // sees each (src, dst, e) exactly once.
        let f = SparseFrontier::from_vec(fr.clone());
        neighbors_expand(execution::par, &ctx, &g, &f, |src, dst, e, _| {
            assert!(g.out_edges(src).contains(&e));
            assert_eq!(g.edge_dest(e), dst);
            hits[e].fetch_add(1, Ordering::Relaxed);
            false
        });
        for v in g.vertices() {
            let expected = usize::from(fr.contains(&v));
            for e in g.out_edges(v) {
                prop_assert_eq!(hits[e].load(Ordering::Relaxed), expected);
            }
        }
    }

    #[test]
    fn filter_flavors_agree((_g, frontier) in arb_graph_and_frontier()) {
        let ctx = Context::new(3);
        let f = SparseFrontier::from_vec(frontier);
        let pred = |v: VertexId| v.is_multiple_of(2);
        let mut a = filter(execution::seq, &ctx, &f, pred);
        let mut b = filter(execution::par, &ctx, &f, pred);
        a.uniquify();
        b.uniquify();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fill_indexed_equals_sequential_map(n in 0usize..20_000, threads in 1usize..5) {
        let ctx = Context::new(threads);
        let par: Vec<u64> = fill_indexed(execution::par, &ctx, n, |i| (i as u64).wrapping_mul(2654435761));
        let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(2654435761)).collect();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn reduce_policy_equivalence_integers(values in prop::collection::vec(0u64..1_000, 0..3000)) {
        use essentials_core::operators::reduce::reduce;
        let ctx = Context::new(4);
        let seq = reduce(execution::seq, &ctx, values.len(), 0u64, |i| values[i], |a, b| a + b);
        let par = reduce(execution::par, &ctx, values.len(), 0u64, |i| values[i], |a, b| a + b);
        prop_assert_eq!(seq, par);
        prop_assert_eq!(seq, values.iter().sum::<u64>());
    }
}
