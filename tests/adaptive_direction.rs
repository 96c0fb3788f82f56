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

/// The plans the fixed-direction variants used to be, plus the default
/// α/β switch.
fn plans() -> [(&'static str, DirectionPolicy); 4] {
    [
        ("push", DirectionPolicy::fixed(Direction::Push)),
        ("dense push", DirectionPolicy::fixed(Direction::DensePush)),
        ("pull", DirectionPolicy::fixed(Direction::Pull)),
        ("adaptive", DirectionPolicy::default()),
    ]
}

#[test]
fn adaptive_bfs_matches_fixed_push_and_pull_bit_for_bit() {
    for (name, coo) in topologies() {
        let g = sym(coo);
        let oracle = bfs::bfs_sequential(&g, 0).level;
        for threads in [1, 4] {
            let ctx = Context::new(threads);
            let push = bfs::bfs(execution::par, &ctx, &g, 0, plans()[0].1);
            for (plan, policy) in plans() {
                let r = bfs::bfs(execution::par, &ctx, &g, 0, policy);
                assert_eq!(r.level, oracle, "{plan} on {name} @ {threads}");
                assert_eq!(
                    r.stats.frontier_trace, push.stats.frontier_trace,
                    "{plan} frontier trace on {name} @ {threads}"
                );
            }
        }
    }
}

#[test]
fn adaptive_bfs_inspects_no_more_edges_than_the_better_fixed_direction() {
    for (name, coo) in topologies() {
        let g = sym(coo);
        let ctx = Context::new(4);
        let [push, _, pull, auto] =
            plans().map(|(_, plan)| bfs::bfs(execution::par, &ctx, &g, 0, plan).edges_inspected);
        assert!(
            auto <= push.min(pull),
            "adaptive inspected {auto} edges on {name}; fixed push {push}, fixed pull {pull}"
        );
        // The α/β direction-optimizing BFS pulls through R-MAT's dense
        // middle levels, skipping most of the edges push inspects there.
        if name == "rmat" {
            assert!(
                auto < push,
                "direction-optimizing inspected {auto} edges on rmat; push {push}"
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
        let fixed = sssp::sssp(execution::par, &ctx, &gw, 0, plans()[0].1);
        let cc_ref = cc::cc_union_find(&g).comp;
        for (plan, policy) in plans() {
            // SSSP: monotone fetch_min — same least fixpoint, bit for bit.
            let r = sssp::sssp(execution::par, &ctx, &gw, 0, policy);
            assert_eq!(r.dist, fixed.dist, "{plan} sssp on {name}");
            // CC: same argument on labels.
            let r = cc::cc_label_propagation(execution::par, &ctx, &g, policy);
            assert_eq!(r.comp, cc_ref, "{plan} cc on {name}");
        }
        // PageRank has no frontier to switch on: each plan picks one gather
        // for the run — the pull scan (pull, and the α/β default on a full
        // frontier) or the atomic scatter (both push plans) — and they reach
        // the same fixpoint up to the scatter's summation order.
        let cfg = pagerank::PrConfig {
            damping: 0.85,
            tolerance: 0.0,
            max_iterations: 20,
        };
        let pull = pagerank::pagerank_pull(execution::par, &ctx, &g, cfg);
        for (plan, policy) in plans() {
            let r = pagerank::pagerank(execution::par, &ctx, &g, cfg, policy);
            let ran = match policy.fixed {
                Some(Direction::Push | Direction::DensePush) => Direction::Push,
                _ => Direction::Pull,
            };
            assert_eq!(r.direction, ran, "{plan} pagerank on {name}");
            for (a, b) in pull.rank.iter().zip(&r.rank) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "{plan} pagerank on {name}: {a} vs {b}"
                );
            }
        }
    }
}

/// Policies spanning the decision space's corners: always-push, eager-pull,
/// dense-early, blocked-pull upgrades, every fixed direction, and the
/// default.
fn arb_policy() -> impl Strategy<Value = DirectionPolicy> {
    const FIXED: [Direction; 4] = [
        Direction::Push,
        Direction::DensePush,
        Direction::Pull,
        Direction::BlockedPull,
    ];
    (
        1usize..40,
        1usize..40,
        1usize..64,
        // Half the cases pin one of the four directions.
        (0usize..2, 1usize..16, 1usize..32, 0usize..8),
    )
        .prop_map(
            |(alpha, beta, gamma, (on, ba, bb, fixed))| DirectionPolicy {
                alpha,
                beta,
                gamma,
                blocked: (on == 1).then_some(BlockedPullPolicy {
                    alpha: ba,
                    beta: bb,
                }),
                fixed: FIXED.get(fixed).copied(),
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
            let r = bfs::bfs(execution::par, &ctx, &g, 0, policy);
            prop_assert_eq!(&r.level, &oracle);
            // The trace of frontier sizes is direction independent too:
            // each level set is determined by the graph, not the schedule.
            let push = bfs::bfs(execution::par, &ctx, &g, 0, plans()[0].1);
            prop_assert_eq!(&r.stats.frontier_trace, &push.stats.frontier_trace);
        }
    }
}
