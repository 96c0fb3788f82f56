//! Single-source widest path (maximum-bottleneck path) — the same Listing-4
//! skeleton as SSSP with the semiring swapped: relaxation is
//! `width[dst] = max(width[dst], min(width[src], w))`. Demonstrates that
//! the abstraction's operator + lambda split makes the *algorithm family*
//! a one-line change.

use essentials_core::prelude::*;
use essentials_parallel::atomics::AtomicF32;
use std::sync::atomic::Ordering;

/// Widest-path result.
#[derive(Debug, Clone)]
pub struct SswpResult {
    /// `width[v]` = maximum over paths of the minimum edge weight;
    /// `f32::INFINITY` at the source, 0 if unreachable.
    pub width: Vec<f32>,
    /// Loop statistics.
    pub stats: LoopStats,
}

/// BSP widest path (paper Listing 4 with a max-min lambda) on
/// [`Enactor::try_run`] with the fused-dedup push: the context's budget and
/// fault plan apply at iteration and chunk boundaries, and an error panics
/// with its message, as [`crate::sssp::sssp`] does.
pub fn sswp<P: ExecutionPolicy>(
    policy: P,
    ctx: &Context,
    g: &Graph<f32>,
    source: VertexId,
) -> SswpResult {
    let n = g.get_num_vertices();
    let width: Vec<AtomicF32> = (0..n)
        .map(|i| {
            AtomicF32::new(if i == source as usize {
                f32::INFINITY
            } else {
                0.0
            })
        })
        .collect();
    let run = Enactor::for_ctx(ctx).try_run(SparseFrontier::single(source), |_, f| {
        let out = try_neighbors_expand_unique(policy, ctx, g, &f, |src, dst, _e, w| {
            let cand = width[src as usize].load(Ordering::Acquire).min(w);
            width[dst as usize].fetch_max(cand, Ordering::AcqRel) < cand
        })?;
        ctx.recycle_frontier(f);
        Ok(out)
    });
    let (last, stats) = run.unwrap_or_else(|e| panic!("{e}"));
    ctx.recycle_frontier(last);
    SswpResult {
        width: width.into_iter().map(AtomicF32::into_inner).collect(),
        stats,
    }
}

/// Sequential oracle: Dijkstra-style with a max-heap on widths.
pub fn sswp_sequential(g: &Graph<f32>, source: VertexId) -> SswpResult {
    use std::collections::BinaryHeap;
    let n = g.get_num_vertices();
    let mut width = vec![0.0f32; n];
    width[source as usize] = f32::INFINITY;
    let mut heap = BinaryHeap::new();
    heap.push((ordered(f32::INFINITY), source));
    while let Some((wv, v)) = heap.pop() {
        let wv = unordered(wv);
        if wv < width[v as usize] {
            continue;
        }
        for e in g.get_edges(v) {
            let dst = g.get_dest_vertex(e);
            let cand = wv.min(g.get_edge_weight(e));
            if cand > width[dst as usize] {
                width[dst as usize] = cand;
                heap.push((ordered(cand), dst));
            }
        }
    }
    SswpResult {
        width,
        stats: LoopStats::default(),
    }
}

fn ordered(x: f32) -> u32 {
    // Monotone map from non-negative f32 (incl. inf) to u32.
    x.to_bits()
}

fn unordered(b: u32) -> f32 {
    f32::from_bits(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_gen as gen;

    #[test]
    fn picks_the_wider_of_two_routes() {
        // 0 -> 1 (wide 5) -> 3 (narrow 1); 0 -> 2 (3) -> 3 (3): best = 3.
        let g = Graph::from_coo(&Coo::from_edges(
            4,
            [(0, 1, 5.0), (1, 3, 1.0), (0, 2, 3.0), (2, 3, 3.0)],
        ));
        let ctx = Context::new(2);
        let r = sswp(execution::par, &ctx, &g, 0);
        assert_eq!(r.width[3], 3.0);
        assert_eq!(r.width[1], 5.0);
        assert_eq!(r.width[0], f32::INFINITY);
    }

    #[test]
    fn matches_sequential_oracle_on_random_graphs() {
        let ctx = Context::new(4);
        for seed in [2, 7] {
            let coo = gen::gnm(200, 1200, seed);
            let g = Graph::from_coo(&gen::uniform_weights(&coo, 0.1, 9.0, seed));
            let par = sswp(execution::par, &ctx, &g, 0);
            let oracle = sswp_sequential(&g, 0);
            assert_eq!(par.width, oracle.width, "seed {seed}");
        }
    }

    #[test]
    fn unreachable_width_is_zero() {
        let g = Graph::from_coo(&Coo::from_edges(3, [(0, 1, 2.0)]));
        let ctx = Context::sequential();
        let r = sswp(execution::seq, &ctx, &g, 0);
        assert_eq!(r.width[2], 0.0);
    }

    #[test]
    fn policy_equivalence() {
        let coo = gen::rmat(8, 6, gen::RmatParams::default(), 9);
        let g = Graph::from_coo(&gen::uniform_weights(&coo, 0.5, 4.0, 2));
        let ctx = Context::new(4);
        let a = sswp(execution::seq, &ctx, &g, 0).width;
        let b = sswp(execution::par, &ctx, &g, 0).width;
        let c = sswp(execution::par_nosync, &ctx, &g, 0).width;
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
}
