//! The abstraction's core contract (§III-A): "the operator's functionality
//! [is] identical, even as its underlying execution changes." Every
//! algorithm must return the same answer under seq, par, and par_nosync,
//! across thread counts, on every workload family.

use essentials::prelude::*;
use essentials_algos::{bfs, cc, color, kcore, sssp, sswp, tc};
use essentials_gen as gen;

/// The fixed-push plan: Listing 4's traversal, and the BSP baseline the
/// relaxation-count comparison below is stated against.
fn push() -> DirectionPolicy {
    DirectionPolicy::fixed(Direction::Push)
}

fn workloads() -> Vec<(&'static str, Graph<f32>)> {
    let build = |coo: &Coo<()>, seed: u64| -> Graph<f32> {
        let mut c = coo.clone();
        c.remove_self_loops();
        c.symmetrize();
        c.sort_and_dedup();
        Graph::from_coo(&gen::hash_weights(&c, 0.1, 2.0, seed)).with_csc()
    };
    vec![
        (
            "rmat",
            build(&gen::rmat(8, 8, gen::RmatParams::default(), 1), 1),
        ),
        ("grid", build(&gen::grid2d(16, 16), 2)),
        ("ws", build(&gen::watts_strogatz(300, 4, 0.2, 3), 3)),
        ("ba", build(&gen::barabasi_albert(300, 3, 4), 4)),
        ("star", build(&gen::star(128), 5)),
        ("tree", build(&gen::binary_tree(255), 6)),
    ]
}

#[test]
fn sssp_identical_across_policies_and_thread_counts() {
    for (name, g) in workloads() {
        let reference = sssp::sssp(execution::seq, &Context::sequential(), &g, 0, push()).dist;
        for threads in [1, 2, 4, 8] {
            let ctx = Context::new(threads);
            for dist in [
                sssp::sssp(execution::par, &ctx, &g, 0, push()).dist,
                sssp::sssp(execution::par_nosync, &ctx, &g, 0, push()).dist,
                sssp::sssp_async(&ctx, &g, 0).dist,
            ] {
                assert_eq!(dist, reference, "{name} @ {threads} threads");
            }
        }
        // Listing 4 trades redundant work for parallel structure: Dijkstra
        // relaxes each reachable edge once, Δ-stepping re-relaxes only
        // within a bucket, BSP whenever a shorter path arrives later.
        if name == "rmat" || name == "grid" {
            let ctx = Context::new(2);
            let dijkstra = sssp::dijkstra(&g, 0).relaxations;
            let delta = sssp::delta_stepping(execution::par, &ctx, &g, 0, 0.5).relaxations;
            let bsp = sssp::sssp(execution::par, &ctx, &g, 0, push()).relaxations;
            assert!(
                dijkstra <= delta && delta <= bsp,
                "{name}: dijkstra {dijkstra}, delta {delta}, bsp {bsp} relaxations"
            );
        }
    }
}

#[test]
fn bfs_identical_across_all_variants() {
    let eager_blocked = DirectionPolicy {
        blocked: Some(BlockedPullPolicy {
            alpha: 1000,
            beta: 1000,
        }),
        ..DirectionPolicy::default()
    };
    let plans = [
        ("push", push()),
        ("dense", DirectionPolicy::fixed(Direction::DensePush)),
        ("pull", DirectionPolicy::fixed(Direction::Pull)),
        ("do", DirectionPolicy::default()),
        ("blocked", eager_blocked),
    ];
    for (name, g) in workloads() {
        let reference = bfs::bfs_sequential(&g, 0).level;
        let ctx = Context::new(4);
        for (vname, plan) in plans {
            for level in [
                bfs::bfs(execution::par, &ctx, &g, 0, plan).level,
                bfs::bfs(execution::par_nosync, &ctx, &g, 0, plan).level,
            ] {
                assert_eq!(level, reference, "{vname} on {name}");
            }
        }
        for (vname, level) in [
            ("queue", bfs::bfs_queue(&ctx, &g, 0).level),
            ("async", bfs::bfs_async(&ctx, &g, 0).level),
        ] {
            assert_eq!(level, reference, "{vname} on {name}");
        }
    }
}

#[test]
fn structural_algorithms_policy_equivalence() {
    for (name, g) in workloads() {
        let ctx = Context::new(4);
        let seq = Context::sequential();

        let cc_ref = cc::cc_union_find(&g).comp;
        assert_eq!(
            cc::cc_label_propagation(execution::par, &ctx, &g, push()).comp,
            cc_ref,
            "cc on {name}"
        );
        assert_eq!(cc::cc_hooking(execution::par, &ctx, &g).comp, cc_ref);

        let tc_ref = tc::triangle_count(execution::seq, &seq, &g, false).triangles;
        assert_eq!(
            tc::triangle_count(execution::par, &ctx, &g, true).triangles,
            tc_ref,
            "tc on {name}"
        );

        let kc_ref = kcore::kcore_sequential(&g).core;
        assert_eq!(
            kcore::kcore_peel(execution::par, &ctx, &g).core,
            kc_ref,
            "kcore on {name}"
        );

        // Coloring is not unique across schedules — verify validity instead.
        let col = color::color_greedy(execution::par, &ctx, &g);
        assert!(color::verify_coloring(&g, &col.color), "color on {name}");

        let w_ref = sswp::sswp_sequential(&g, 0).width;
        assert_eq!(
            sswp::sswp(execution::par, &ctx, &g, 0).width,
            w_ref,
            "sswp on {name}"
        );
    }
}

#[test]
fn different_sources_and_unreachable_regions() {
    // Directed path: late sources see shrinking reachable sets.
    let coo = gen::path(60);
    let g = Graph::from_coo(&gen::unit_weights(&coo)).with_csc();
    let ctx = Context::new(2);
    for source in [0u32, 30, 59] {
        let r = sssp::sssp(execution::par, &ctx, &g, source, push());
        for v in 0..60u32 {
            if v < source {
                assert!(r.dist[v as usize].is_infinite());
            } else {
                assert_eq!(r.dist[v as usize], (v - source) as f32);
            }
        }
    }
}
