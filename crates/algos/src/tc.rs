//! Triangle counting via sorted-adjacency intersection.
//!
//! Uses the rank-ordered direction trick: build the DAG that keeps only
//! edges `u → v` with `u < v`; each triangle `{u < v < w}` then appears as
//! exactly one wedge `u → v`, `u → w`, `v → w`, counted by intersecting
//! `N⁺(u) ∩ N⁺(v)` with the galloping intersection from `essentials-core`
//! (its merge sibling serves the clustering coefficients).

use essentials_core::prelude::*;

/// Triangle count plus work metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcResult {
    /// Number of distinct triangles.
    pub triangles: usize,
    /// Intersection operations performed.
    pub intersections: usize,
}

/// Builds the oriented (rank-ordered) DAG of a symmetric graph.
fn orient<W: EdgeValue>(g: &Graph<W>) -> Csr<()> {
    let mut coo = Coo::new(g.get_num_vertices());
    for u in g.vertices() {
        for &v in g.out_neighbors(u) {
            if u < v {
                coo.push(u, v, ());
            }
        }
    }
    Csr::from_coo(&coo)
}

/// Parallel triangle count of a **symmetric** graph (each undirected edge
/// present in both directions; self-loops ignored by orientation).
pub fn triangle_count<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
) -> TcResult {
    let dag = orient(g);
    let n = dag.num_vertices();
    let triangles = essentials_core::operators::reduce::reduce(
        policy,
        ctx,
        n,
        0usize,
        |u| {
            let u = u as VertexId;
            let nu = dag.neighbors(u);
            let mut local = 0;
            for &v in nu {
                let nv = dag.neighbors(v);
                local += intersect_count_gallop(nu, nv);
            }
            local
        },
        |a, b| a + b,
    );
    TcResult {
        triangles,
        // One intersection per oriented edge `u → v`.
        intersections: dag.num_edges(),
    }
}

/// Per-vertex triangle counts and local clustering coefficients of a
/// **symmetric** graph: `lcc[v] = 2·tri(v) / (deg(v)·(deg(v)-1))`, the
/// fraction of a vertex's neighbor pairs that are themselves connected.
pub fn clustering_coefficients<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
) -> Vec<f64> {
    let n = g.get_num_vertices();
    fill_indexed(policy, ctx, n, |v| {
        let v = v as VertexId;
        let nbrs: Vec<VertexId> = g
            .out_neighbors(v)
            .iter()
            .copied()
            .filter(|&u| u != v)
            .collect();
        let deg = nbrs.len();
        if deg < 2 {
            return 0.0;
        }
        // Count connected neighbor pairs via adjacency intersection: for
        // each neighbor u, |N(v) ∩ N(u)| counts wedges closed through u;
        // summing double-counts each triangle at v exactly twice.
        let mut wedges_closed = 0usize;
        for &u in &nbrs {
            wedges_closed += intersect_count(&nbrs, g.out_neighbors(u));
        }
        let tri = wedges_closed / 2;
        2.0 * tri as f64 / (deg * (deg - 1)) as f64
    })
}

/// O(n³)-ish brute-force oracle for small graphs: checks all vertex triples.
pub fn triangle_count_naive<W: EdgeValue>(g: &Graph<W>) -> usize {
    let n = g.get_num_vertices() as VertexId;
    let mut count = 0;
    for u in 0..n {
        for v in u + 1..n {
            if !g.csr().has_edge(u, v) {
                continue;
            }
            for w in v + 1..n {
                if g.csr().has_edge(u, w) && g.csr().has_edge(v, w) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_gen as gen;

    fn sym(coo: &Coo<()>) -> Graph<()> {
        GraphBuilder::from_coo(coo.clone())
            .remove_self_loops()
            .symmetrize()
            .deduplicate()
            .build()
    }

    #[test]
    fn complete_graph_formula() {
        // K5 has C(5,3) = 10 triangles.
        let g = Graph::from_coo(&gen::complete(5));
        let ctx = Context::new(2);
        let r = triangle_count(execution::par, &ctx, &g);
        assert_eq!(r.triangles, 10);
    }

    #[test]
    fn agrees_with_naive_on_random_graphs() {
        let ctx = Context::new(4);
        for seed in [1, 5, 9] {
            let g = sym(&gen::gnm(60, 400, seed));
            let expected = triangle_count_naive(&g);
            let r = triangle_count(execution::par, &ctx, &g);
            assert_eq!(r.triangles, expected, "seed {seed}");
        }
    }

    #[test]
    fn policy_equivalence() {
        let ctx = Context::new(4);
        let g = sym(&gen::rmat(8, 6, gen::RmatParams::default(), 4));
        let a = triangle_count(execution::seq, &ctx, &g).triangles;
        let b = triangle_count(execution::par, &ctx, &g).triangles;
        assert_eq!(a, b);
    }

    #[test]
    fn triangle_free_graphs() {
        let ctx = Context::new(2);
        // Grids and trees are triangle-free; a star too.
        for coo in [gen::grid2d(6, 6), gen::binary_tree(31), gen::star(20)] {
            let g = sym(&coo);
            assert_eq!(triangle_count(execution::par, &ctx, &g).triangles, 0);
        }
    }

    #[test]
    fn clustering_of_complete_graph_is_one() {
        let g = Graph::from_coo(&gen::complete(6));
        let ctx = Context::new(2);
        let lcc = clustering_coefficients(execution::par, &ctx, &g);
        assert!(lcc.iter().all(|&c| (c - 1.0).abs() < 1e-12), "{lcc:?}");
    }

    #[test]
    fn clustering_of_triangle_free_graphs_is_zero() {
        let ctx = Context::new(2);
        for coo in [gen::grid2d(5, 5), gen::star(10)] {
            let g = sym(&coo);
            let lcc = clustering_coefficients(execution::par, &ctx, &g);
            assert!(lcc.iter().all(|&c| c == 0.0));
        }
    }

    #[test]
    fn clustering_relates_to_total_triangles() {
        // Sum over v of tri(v) = 3 * total triangles; recover tri(v) from
        // lcc and degree to cross-check the two computations.
        let ctx = Context::new(2);
        let g = sym(&gen::gnm(50, 350, 4));
        let lcc = clustering_coefficients(execution::par, &ctx, &g);
        let mut tri_sum = 0.0f64;
        for v in g.vertices() {
            let d = g.out_degree(v) as f64;
            tri_sum += lcc[v as usize] * d * (d - 1.0) / 2.0;
        }
        let total = triangle_count(execution::par, &ctx, &g).triangles;
        assert!(
            (tri_sum / 3.0 - total as f64).abs() < 1e-6,
            "{tri_sum} vs {total}"
        );
    }

    #[test]
    fn clustering_policy_equivalence() {
        let ctx = Context::new(4);
        let g = sym(&gen::rmat(7, 6, gen::RmatParams::default(), 8));
        let a = clustering_coefficients(execution::seq, &ctx, &g);
        let b = clustering_coefficients(execution::par, &ctx, &g);
        assert_eq!(a, b);
    }

    #[test]
    fn self_loops_do_not_create_triangles() {
        let mut coo = Coo::<()>::new(3);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1)] {
            coo.push(a, b, ());
        }
        let g = sym(&coo);
        let ctx = Context::sequential();
        assert_eq!(triangle_count(execution::seq, &ctx, &g).triangles, 1);
    }
}
