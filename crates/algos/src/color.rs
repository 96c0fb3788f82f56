//! Greedy parallel graph coloring (Gebremedhin–Manne speculative style).
//!
//! Each round, every uncolored vertex speculatively takes the smallest
//! color unused by its neighbors (reading possibly-stale neighbor colors in
//! parallel); a conflict-detection pass then un-colors the lower-id
//! endpoint of any monochromatic edge and the frontier of conflicted
//! vertices re-runs. On a symmetric graph this terminates with a proper
//! coloring — the frontier/operator composition again.

use essentials_core::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// No color assigned yet.
pub const UNCOLORED: u32 = u32::MAX;

/// Coloring output.
#[derive(Debug, Clone)]
pub struct ColorResult {
    /// `color[v]` — proper: no edge is monochromatic.
    pub color: Vec<u32>,
    /// Number of distinct colors used.
    pub num_colors: usize,
    /// Speculate/resolve rounds executed.
    pub rounds: usize,
}

/// Parallel speculative coloring of a **symmetric** graph (self-loops must
/// have been removed — a self-loop can never be properly colored).
///
/// Each speculate/resolve round is one [`Enactor::try_run`] iteration over
/// the frontier of uncolored vertices, so the context's budget and fault
/// plan apply; an error panics with its message, as
/// [`crate::sssp::sssp`] does.
pub fn color_greedy<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
) -> ColorResult {
    let n = g.get_num_vertices();
    let color: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let init: SparseFrontier = g.vertices().collect();
    let run = Enactor::for_ctx(ctx).try_run(init, |_, frontier| {
        // Speculate: smallest color not seen among neighbors.
        try_foreach_active(policy, ctx, &frontier, |v| {
            let mut taken: Vec<u32> = g
                .out_neighbors(v)
                .iter()
                .map(|&u| color[u as usize].load(Ordering::Acquire))
                .filter(|&c| c != UNCOLORED)
                .collect();
            taken.sort_unstable();
            taken.dedup();
            let mut c = 0u32;
            for t in taken {
                if t == c {
                    c += 1;
                } else if t > c {
                    break;
                }
            }
            color[v as usize].store(c, Ordering::Release);
        })?;
        // Resolve: un-color the smaller endpoint of every conflict edge. The
        // condition never admits, so the expansion's output stays empty.
        let none = try_neighbors_expand(policy, ctx, g, &frontier, |src, dst, _e, _w| {
            if src < dst
                && color[src as usize].load(Ordering::Acquire)
                    == color[dst as usize].load(Ordering::Acquire)
            {
                color[src as usize].store(UNCOLORED, Ordering::Release);
            }
            false
        })?;
        ctx.recycle_frontier(none);
        // Re-collect the vertices that lost their color.
        let next = try_filter(policy, ctx, &frontier, |v| {
            color[v as usize].load(Ordering::Acquire) == UNCOLORED
        })?;
        ctx.recycle_frontier(frontier);
        Ok(next)
    });
    let (last, stats) = run.unwrap_or_else(|e| panic!("{e}"));
    ctx.recycle_frontier(last);
    let rounds = stats.iterations;
    let color: Vec<u32> = color.into_iter().map(AtomicU32::into_inner).collect();
    let num_colors = color.iter().copied().max().map_or(0, |m| m as usize + 1);
    ColorResult {
        color,
        num_colors,
        rounds,
    }
}

/// Sequential greedy coloring in vertex order (the oracle for validity and
/// a quality yardstick: uses at most Δ+1 colors).
pub fn color_sequential<W: EdgeValue>(g: &Graph<W>) -> ColorResult {
    let n = g.get_num_vertices();
    let mut color = vec![UNCOLORED; n];
    for v in g.vertices() {
        let mut taken: Vec<u32> = g
            .out_neighbors(v)
            .iter()
            .map(|&u| color[u as usize])
            .filter(|&c| c != UNCOLORED)
            .collect();
        taken.sort_unstable();
        taken.dedup();
        let mut c = 0u32;
        for t in taken {
            if t == c {
                c += 1;
            } else if t > c {
                break;
            }
        }
        color[v as usize] = c;
    }
    let num_colors = color.iter().copied().max().map_or(0, |m| m as usize + 1);
    ColorResult {
        color,
        num_colors,
        rounds: 1,
    }
}

/// A coloring is valid iff every vertex is colored and no edge is
/// monochromatic.
pub fn verify_coloring<W: EdgeValue>(g: &Graph<W>, color: &[u32]) -> bool {
    color.len() == g.get_num_vertices()
        && color.iter().all(|&c| c != UNCOLORED)
        && g.vertices().all(|v| {
            g.out_neighbors(v)
                .iter()
                .all(|&u| u == v || color[u as usize] != color[v as usize])
        })
}

/// Max degree + 1: the guaranteed upper bound for greedy colorings.
pub fn greedy_bound<W: EdgeValue>(g: &Graph<W>) -> usize {
    g.vertices().map(|v| g.out_degree(v)).max().unwrap_or(0) + 1
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
    fn colors_are_proper_on_random_graphs() {
        let ctx = Context::new(4);
        for seed in [3, 8] {
            let g = sym(&gen::gnm(200, 1200, seed));
            let r = color_greedy(execution::par, &ctx, &g);
            assert!(
                verify_coloring(&g, &r.color),
                "improper coloring, seed {seed}"
            );
            assert!(r.num_colors <= greedy_bound(&g));
        }
    }

    #[test]
    fn bipartite_grid_needs_two_colors() {
        let g = sym(&gen::grid2d(8, 8));
        let ctx = Context::new(2);
        let r = color_greedy(execution::par, &ctx, &g);
        assert!(verify_coloring(&g, &r.color));
        assert_eq!(r.num_colors, 2);
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let g = Graph::from_coo(&gen::complete(7));
        let ctx = Context::new(2);
        let r = color_greedy(execution::par, &ctx, &g);
        assert!(verify_coloring(&g, &r.color));
        assert_eq!(r.num_colors, 7);
    }

    #[test]
    fn sequential_oracle_is_proper_and_bounded() {
        let g = sym(&gen::rmat(8, 4, gen::RmatParams::default(), 5));
        let r = color_sequential(&g);
        assert!(verify_coloring(&g, &r.color));
        assert!(r.num_colors <= greedy_bound(&g));
    }

    #[test]
    fn edgeless_graph_uses_one_color() {
        let g = Graph::<()>::from_coo(&Coo::new(4));
        let ctx = Context::sequential();
        let r = color_greedy(execution::seq, &ctx, &g);
        assert!(r.color.iter().all(|&c| c == 0));
        assert_eq!(r.num_colors, 1);
    }
}
