//! Cross-algorithm invariants: relationships between *different*
//! algorithms' outputs that must hold on any graph. These catch bugs that
//! per-algorithm oracles can miss (a consistent-but-wrong pair of results).

use essentials_algos::{bfs, cc, color, kcore, sssp, sswp, tc};
use essentials_core::prelude::*;
use essentials_gen as gen;
use essentials_graph::relabel::relabel_by_degree;

/// The fixed-push plan: the traversal of the paper's listings, CSR only.
fn push() -> DirectionPolicy {
    DirectionPolicy::fixed(Direction::Push)
}

fn sym(coo: &Coo<()>) -> Graph<()> {
    GraphBuilder::from_coo(coo.clone())
        .remove_self_loops()
        .symmetrize()
        .deduplicate()
        .with_csc()
        .build()
}

#[test]
fn every_triangle_vertex_has_core_at_least_two() {
    let ctx = Context::new(2);
    let g = sym(&gen::gnm(80, 600, 3));
    let cores = kcore::kcore_peel(execution::par, &ctx, &g).core;
    let lcc = tc::clustering_coefficients(execution::par, &ctx, &g);
    for v in g.vertices() {
        if lcc[v as usize] > 0.0 {
            assert!(
                cores[v as usize] >= 2,
                "v{v} is in a triangle but has core {}",
                cores[v as usize]
            );
        }
    }
}

#[test]
fn chromatic_number_at_least_three_when_triangles_exist() {
    let ctx = Context::new(2);
    let g = sym(&gen::gnm(60, 500, 5));
    let tri = tc::triangle_count(execution::par, &ctx, &g, false).triangles;
    let coloring = color::color_greedy(execution::par, &ctx, &g);
    assert!(color::verify_coloring(&g, &coloring.color));
    if tri > 0 {
        assert!(coloring.num_colors >= 3);
    }
}

#[test]
fn bfs_reachability_equals_component_membership_on_symmetric_graphs() {
    let ctx = Context::new(2);
    let g = sym(&gen::gnm(120, 150, 7)); // sparse => multiple components
    let comp = cc::cc_label_propagation(execution::par, &ctx, &g, push()).comp;
    let source: VertexId = 0;
    let levels = bfs::bfs(execution::par, &ctx, &g, source, push()).level;
    for v in g.vertices() {
        let same_comp = comp[v as usize] == comp[source as usize];
        let reached = levels[v as usize] != bfs::UNVISITED;
        assert_eq!(same_comp, reached, "v{v}");
    }
}

#[test]
fn sssp_distance_bounds_bfs_hops_times_max_weight() {
    let ctx = Context::new(2);
    let coo = {
        let mut c = gen::gnm(100, 800, 2);
        c.symmetrize();
        c.sort_and_dedup();
        c
    };
    let g = Graph::from_coo(&gen::hash_weights(&coo, 0.5, 2.0, 3));
    let dist = sssp::sssp(execution::par, &ctx, &g, 0, push()).dist;
    let hops = bfs::bfs(execution::par, &ctx, &g, 0, push()).level;
    for v in g.vertices() {
        let (d, h) = (dist[v as usize], hops[v as usize]);
        assert_eq!(d.is_finite(), h != bfs::UNVISITED);
        if d.is_finite() {
            // min_w * hops <= dist <= max_w * hops
            assert!(d <= 2.0 * h as f32 + 1e-4, "v{v}: {d} vs {h} hops");
            assert!(d >= 0.5 * h as f32 - 1e-4, "v{v}: {d} vs {h} hops");
        }
    }
}

#[test]
fn widest_path_width_never_below_bottleneck_of_shortest_path() {
    // The widest path is at least as wide as the specific path SSSP found.
    let ctx = Context::new(2);
    let coo = gen::gnm(80, 600, 9);
    let g = Graph::from_coo(&gen::uniform_weights(&coo, 0.1, 5.0, 4));
    let tree = essentials_algos::paths::sssp_with_parents(execution::par, &ctx, &g, 0);
    let width = sswp::sswp(execution::par, &ctx, &g, 0).width;
    for v in g.vertices() {
        if v == 0 || tree.dist[v as usize].is_infinite() {
            continue;
        }
        let path = essentials_algos::paths::extract_path(&tree.parent, 0, v).unwrap();
        let mut bottleneck = f32::INFINITY;
        for pair in path.windows(2) {
            let mut best = 0.0f32;
            for e in g.get_edges(pair[0]) {
                if g.get_dest_vertex(e) == pair[1] {
                    best = best.max(g.get_edge_weight(e));
                }
            }
            bottleneck = bottleneck.min(best);
        }
        assert!(
            width[v as usize] >= bottleneck - 1e-5,
            "v{v}: widest {} < shortest-path bottleneck {bottleneck}",
            width[v as usize]
        );
    }
}

#[test]
fn results_are_invariant_under_degree_relabeling() {
    let ctx = Context::new(2);
    let g = sym(&gen::rmat(8, 6, gen::RmatParams::default(), 6));
    let (relabeled_csr, map) = relabel_by_degree(g.csr());
    let rg = Graph::from_csr(relabeled_csr).with_csc();

    // Triangle count is a graph invariant.
    let t1 = tc::triangle_count(execution::par, &ctx, &g, false).triangles;
    let t2 = tc::triangle_count(execution::par, &ctx, &rg, false).triangles;
    assert_eq!(t1, t2);

    // Core numbers permute with the relabeling.
    let c1 = kcore::kcore_peel(execution::par, &ctx, &g).core;
    let c2 = kcore::kcore_peel(execution::par, &ctx, &rg).core;
    assert_eq!(map.permute(&c1), c2);

    // Component *partition* is preserved (labels change, classes don't).
    let k1 = cc::cc_label_propagation(execution::par, &ctx, &g, push()).comp;
    let k2 = cc::cc_label_propagation(execution::par, &ctx, &rg, push()).comp;
    for u in g.vertices() {
        for v in g.vertices() {
            let same_before = k1[u as usize] == k1[v as usize];
            let same_after =
                k2[map.new_of[u as usize] as usize] == k2[map.new_of[v as usize] as usize];
            assert_eq!(same_before, same_after);
        }
    }
}

#[test]
fn max_core_bounds_follow_edge_count() {
    // A graph with m undirected edges cannot contain a (k+1)-clique-like
    // core with k(k+1)/2 > m.
    let ctx = Context::new(2);
    let g = sym(&gen::gnm(100, 400, 1));
    let kmax = kcore::kcore_peel(execution::par, &ctx, &g)
        .core
        .into_iter()
        .max()
        .unwrap_or(0) as usize;
    let undirected_m = g.get_num_edges() / 2;
    assert!(kmax * (kmax + 1) / 2 <= undirected_m);
}
