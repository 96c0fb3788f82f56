//! The adaptive direction engine's contract, end to end.
//!
//! Two guarantees, checked on the two topologies from the paper's
//! direction-optimizing discussion (power-law R-MAT, where pull pays off in
//! the dense middle, and a mesh, where it never does):
//!
//! 1. **Bit identity** — whatever mix of sparse push / dense push / pull
//!    the policy picks, the answers match the fixed-direction variants
//!    exactly, across every policy corner proptest can reach.
//! 2. **Work bound** — the adaptive traversal inspects no more edges than
//!    the better of fixed push and fixed pull on each topology. That is
//!    the whole point of switching; an engine that loses to both fixed
//!    directions is mis-tuned or mis-counting.

use essentials::prelude::*;
use essentials_algos::{bfs, cc, pagerank, sssp};
use essentials_gen as gen;
use proptest::prelude::*;

fn sym(coo: Coo<()>) -> Graph<()> {
    GraphBuilder::from_coo(coo)
        .remove_self_loops()
        .symmetrize()
        .deduplicate()
        .with_csc()
        .build()
}

fn weighted(mut coo: Coo<()>) -> Graph<f32> {
    coo.remove_self_loops();
    coo.symmetrize();
    coo.sort_and_dedup();
    Graph::from_coo(&gen::hash_weights(&coo, 0.1, 2.0, 42)).with_csc()
}

fn topologies() -> Vec<(&'static str, Coo<()>)> {
    vec![
        ("rmat", gen::rmat(10, 8, gen::RmatParams::default(), 3)),
        ("grid", gen::grid2d(32, 32)),
    ]
}

#[test]
fn adaptive_bfs_matches_fixed_push_and_pull_bit_for_bit() {
    for (name, coo) in topologies() {
        let g = sym(coo);
        let oracle = bfs::bfs_sequential(&g, 0).level;
        for threads in [1, 4] {
            let ctx = Context::new(threads);
            let push = bfs::bfs(execution::par, &ctx, &g, 0);
            let pull = bfs::bfs_pull(execution::par, &ctx, &g, 0);
            let auto = bfs::bfs_adaptive(execution::par, &ctx, &g, 0);
            assert_eq!(push.level, oracle, "push on {name} @ {threads}");
            assert_eq!(pull.level, oracle, "pull on {name} @ {threads}");
            assert_eq!(auto.level, oracle, "adaptive on {name} @ {threads}");
        }
    }
}

#[test]
fn adaptive_bfs_inspects_no_more_edges_than_the_better_fixed_direction() {
    for (name, coo) in topologies() {
        let g = sym(coo);
        let ctx = Context::new(4);
        let push = bfs::bfs(execution::par, &ctx, &g, 0).edges_inspected;
        let pull = bfs::bfs_pull(execution::par, &ctx, &g, 0).edges_inspected;
        let auto = bfs::bfs_adaptive(execution::par, &ctx, &g, 0).edges_inspected;
        assert!(
            auto <= push.min(pull),
            "adaptive inspected {auto} edges on {name}; fixed push {push}, fixed pull {pull}"
        );
        // The α/β direction-optimizing BFS pulls through R-MAT's dense
        // middle levels, skipping most of the edges push inspects there.
        if name == "rmat" {
            let params = bfs::DoParams::default();
            let dobfs = bfs::bfs_direction_optimizing(execution::par, &ctx, &g, 0, params);
            assert!(
                dobfs.edges_inspected < push,
                "direction-optimizing inspected {} edges on rmat; push {push}",
                dobfs.edges_inspected
            );
        }
    }
}

#[test]
fn adaptive_sssp_cc_pagerank_match_their_fixed_variants() {
    for (name, coo) in topologies() {
        let g = sym(coo.clone());
        let gw = weighted(coo);
        let ctx = Context::new(4);
        // SSSP: monotone fetch_min — same least fixpoint, bit for bit.
        let fixed = sssp::sssp(execution::par, &ctx, &gw, 0);
        let auto = sssp::sssp_adaptive(execution::par, &ctx, &gw, 0);
        assert_eq!(auto.dist, fixed.dist, "sssp on {name}");
        // CC: same argument on labels.
        let cc_ref = cc::cc_union_find(&g).comp;
        assert_eq!(
            cc::cc_adaptive(execution::par, &ctx, &g).comp,
            cc_ref,
            "cc on {name}"
        );
        // PageRank: the default policy gathers every iteration, so the
        // result is bit-identical to the pull variant.
        let cfg = pagerank::PrConfig {
            damping: 0.85,
            tolerance: 0.0,
            max_iterations: 20,
        };
        let pull = pagerank::pagerank_pull(execution::par, &ctx, &g, cfg);
        let auto =
            pagerank::pagerank_adaptive(execution::par, &ctx, &g, cfg, DirectionPolicy::default());
        assert_eq!(auto.rank, pull.rank, "pagerank on {name}");
    }
}

/// Policies spanning the decision space's corners: always-push, eager-pull,
/// dense-early, sticky (high dwell), blocked-pull upgrades, and the default.
fn arb_policy() -> impl Strategy<Value = DirectionPolicy> {
    (
        1usize..40,
        1usize..40,
        1usize..64,
        1usize..4,
        (0usize..2, 1usize..16, 1usize..32),
    )
        .prop_map(
            |(alpha, beta, gamma, dwell, (on, ba, bb))| DirectionPolicy {
                alpha,
                beta,
                gamma,
                dwell,
                blocked: (on == 1).then_some(BlockedPullPolicy {
                    alpha: ba,
                    beta: bb,
                }),
                compressed: None,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_policy_corner_is_bit_identical_to_fixed_directions(
        policy in arb_policy(),
        scale in 7u32..10,
        seed in 0u64..1000,
        grid_side in 8usize..24,
    ) {
        let ctx = Context::new(4);
        for g in [
            sym(gen::rmat(scale, 8, gen::RmatParams::default(), seed)),
            sym(gen::grid2d(grid_side, grid_side)),
        ] {
            let oracle = bfs::bfs_sequential(&g, 0).level;
            let r = bfs::bfs_with_policy(execution::par, &ctx, &g, 0, policy);
            prop_assert_eq!(&r.level, &oracle);
            // The trace of frontier sizes is direction independent too:
            // each level set is determined by the graph, not the schedule.
            let push = bfs::bfs(execution::par, &ctx, &g, 0);
            prop_assert_eq!(&r.stats.frontier_trace, &push.stats.frontier_trace);
        }
    }
}
