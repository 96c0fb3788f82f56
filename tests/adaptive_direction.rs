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
//! 3. **Fallback** — on a graph without an in-stream every plan pushes, and
//!    the answers stay those of the push plan.

use essentials::prelude::*;
use essentials_algos::{bfs, cc, hits, pagerank, sssp};
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

/// Every plan on a graph without an in-stream: a CSR-only `Graph` and a
/// `CompressedGraph` compressed from it (no transpose). The engine pushes
/// wherever the plan would pull — the direction trace holds only `Push` /
/// `DensePush` — and the answers equal the push plan's bit for bit (BFS,
/// SSSP, CC) or within float-summation noise of the CSC graph's (PageRank,
/// HITS).
fn no_in_stream_rows<G, H>(
    rep: &str,
    ctx: &Context,
    g: &G,
    gw: &H,
    with_csc: (&Graph<()>, &Graph<f32>),
) where
    G: OutWeights<()> + InWeights<()> + Sync,
    H: OutWeights<f32> + InWeights<f32> + Sync,
{
    assert!(!g.has_in_edges() && !gw.has_in_edges(), "{rep}");
    let push = plans()[0].1;
    let bfs_ref = bfs::try_bfs(execution::par, ctx, g, 0, push).expect("push bfs");
    let sssp_ref = sssp::try_sssp(execution::par, ctx, gw, 0, push).expect("push sssp");
    let cc_ref = cc::cc_union_find(with_csc.0).comp;
    let pushes = |dirs: &[Direction], what: &str| {
        assert!(
            dirs.iter().all(|d| !d.is_pull()),
            "{what} on {rep}: {dirs:?}"
        );
    };
    for plan in [
        DirectionPolicy::default(),
        DirectionPolicy::fixed(Direction::Pull),
    ] {
        let what = format!("{plan:?}");
        let r = bfs::try_bfs(execution::par, ctx, g, 0, plan).expect("bfs");
        assert_eq!(r.level, bfs_ref.level, "bfs {what} on {rep}");
        assert_eq!(
            r.stats.frontier_trace, bfs_ref.stats.frontier_trace,
            "{what} on {rep}"
        );
        pushes(&r.directions, &what);
        let r = sssp::try_sssp(execution::par, ctx, gw, 0, plan).expect("sssp");
        assert_eq!(bits(&r.dist), bits(&sssp_ref.dist), "sssp {what} on {rep}");
        pushes(&r.directions, &what);
        let r = cc::try_cc_label_propagation(execution::par, ctx, g, plan).expect("cc");
        assert_eq!(r.comp, cc_ref, "cc {what} on {rep}");
        pushes(&r.directions, &what);
    }
    let cfg = pagerank::PrConfig {
        damping: 0.85,
        tolerance: 0.0,
        max_iterations: 20,
    };
    let pull = pagerank::pagerank_pull(execution::par, ctx, with_csc.0, cfg);
    let r = pagerank::try_pagerank(execution::par, ctx, g, cfg, DirectionPolicy::default())
        .expect("pagerank");
    assert_eq!(r.direction, Direction::Push, "pagerank on {rep}");
    close(&r.rank, &pull.rank, 1e-12, "pagerank", rep);
    let hcfg = hits::HitsConfig {
        tolerance: 0.0,
        max_iterations: 20,
    };
    let scan = hits::hits(
        execution::par,
        ctx,
        with_csc.0,
        hcfg,
        DirectionPolicy::default(),
    );
    let h = hits::try_hits(execution::par, ctx, g, hcfg, DirectionPolicy::default()).expect("hits");
    assert_eq!(h.direction, Direction::Push, "hits on {rep}");
    close(&h.hub, &scan.hub, 1e-9, "hits hub", rep);
    close(&h.authority, &scan.authority, 1e-9, "hits authority", rep);
}

fn bits(dist: &[f32]) -> Vec<u32> {
    dist.iter().map(|d| d.to_bits()).collect()
}

fn close(a: &[f64], b: &[f64], tol: f64, what: &str, rep: &str) {
    assert_eq!(a.len(), b.len(), "{what} on {rep}");
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < tol, "{what} on {rep}: {x} vs {y}");
    }
}

#[test]
fn graphs_without_an_in_stream_push_on_every_plan() {
    for (name, coo) in topologies() {
        let (g, gw) = (sym(coo.clone()), weighted(coo));
        let csr = (
            Graph::from_csr(g.csr().clone()),
            Graph::from_csr(gw.csr().clone()),
        );
        for threads in [1, 4] {
            let ctx = Context::new(threads);
            let compressed = (
                CompressedGraph::from_graph(ctx.pool(), &csr.0),
                CompressedGraph::from_graph(ctx.pool(), &csr.1),
            );
            let rep = |r: &str| format!("{r} {name} @ {threads}");
            no_in_stream_rows(&rep("csr"), &ctx, &csr.0, &csr.1, (&g, &gw));
            no_in_stream_rows(
                &rep("compressed"),
                &ctx,
                &compressed.0,
                &compressed.1,
                (&g, &gw),
            );
        }
    }
}

/// Policies spanning the decision space's corners: every fixed direction
/// and the default.
fn arb_policy() -> impl Strategy<Value = DirectionPolicy> {
    const FIXED: [Direction; 4] = [
        Direction::Push,
        Direction::DensePush,
        Direction::Pull,
        Direction::BlockedPull,
    ];
    // Half the cases pin one of the four directions.
    (0usize..8).prop_map(|fixed| DirectionPolicy {
        fixed: FIXED.get(fixed).copied(),
    })
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
