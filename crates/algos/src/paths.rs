//! Predecessor tracking and path reconstruction.
//!
//! Traversal results often need the *path*, not just the metric.
//! [`sssp_with_parents`] records a predecessor per vertex during the same
//! policy-parallel expansion as Listing 4 (the recorded predecessor is
//! always consistent with the final distance), and [`extract_path`] /
//! [`verify_sssp_tree`] turn the parent array into explicit, checked
//! paths.

use essentials_core::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// SSSP with predecessors: distances plus a shortest-path tree.
#[derive(Debug, Clone)]
pub struct SsspTree {
    /// Shortest distances (as in [`crate::sssp::SsspResult`]).
    pub dist: Vec<f32>,
    /// `parent[v]` = predecessor of v on a shortest path;
    /// [`INVALID_VERTEX`] for the source and unreachable vertices.
    pub parent: Vec<VertexId>,
}

/// Listing-4 SSSP augmented with predecessor recording. The (distance,
/// parent) pair is packed into one atomic u64 so the parent always matches
/// the distance it was recorded with (no torn updates under concurrency).
///
/// The loop runs on [`Enactor::try_run`] with the fused-dedup push, so the
/// context's budget and fault plan apply at iteration and chunk
/// boundaries; an error panics with its message, as
/// [`crate::sssp::sssp`] does.
pub fn sssp_with_parents<P: ExecutionPolicy>(
    policy: P,
    ctx: &Context,
    g: &Graph<f32>,
    source: VertexId,
) -> SsspTree {
    let n = g.get_num_vertices();
    // High 32 bits: distance bits (non-negative f32 order-preserving);
    // low 32 bits: parent id. Smaller value <=> smaller distance.
    let pack = |d: f32, p: VertexId| -> u64 { ((d.to_bits() as u64) << 32) | p as u64 };
    let state: Vec<AtomicU64> = (0..n)
        .map(|i| {
            AtomicU64::new(if i == source as usize {
                pack(0.0, INVALID_VERTEX)
            } else {
                pack(f32::INFINITY, INVALID_VERTEX)
            })
        })
        .collect();
    let dist_of = |s: u64| f32::from_bits((s >> 32) as u32);

    let run = Enactor::for_ctx(ctx).try_run(SparseFrontier::single(source), |_, f| {
        let out = try_neighbors_expand_unique(policy, ctx, g, &f, |src, dst, _e, w| {
            let new_d = dist_of(state[src as usize].load(Ordering::Acquire)) + w;
            let (candidate, d) = (pack(new_d, src), dst as usize);
            // fetch_min on the packed value: distance dominates the order;
            // among equal distances the smaller parent id wins (harmless —
            // still a valid shortest-path predecessor). The packed value
            // only falls, so the Relaxed probe skips exactly the RMWs that
            // could not lower it.
            state[d].load(Ordering::Relaxed) > candidate
                && state[d].fetch_min(candidate, Ordering::AcqRel) > candidate
        })?;
        ctx.recycle_frontier(f);
        Ok(out)
    });
    let (last, _) = run.unwrap_or_else(|e| panic!("{e}"));
    ctx.recycle_frontier(last);

    let mut dist = Vec::with_capacity(n);
    let mut parent = Vec::with_capacity(n);
    for (v, s) in state.into_iter().enumerate() {
        let s = s.into_inner();
        let d = dist_of(s);
        dist.push(d);
        // The source and unreachable vertices have no predecessor; every
        // other vertex (including distance-0 ones reached over zero-weight
        // edges) keeps the recorded parent.
        parent.push(if v == source as usize || d.is_infinite() {
            INVALID_VERTEX
        } else {
            (s & 0xFFFF_FFFF) as VertexId
        });
    }
    SsspTree { dist, parent }
}

/// Walks parents from `target` back to the root. Returns the path
/// root→target, or `None` if `target` has no recorded path.
pub fn extract_path(
    parent: &[VertexId],
    source: VertexId,
    target: VertexId,
) -> Option<Vec<VertexId>> {
    if target == source {
        return Some(vec![source]);
    }
    let mut path = vec![target];
    let mut cur = target;
    for _ in 0..=parent.len() {
        let p = parent[cur as usize];
        if p == INVALID_VERTEX {
            return None;
        }
        path.push(p);
        if p == source {
            path.reverse();
            return Some(path);
        }
        cur = p;
    }
    None // cycle — invalid parent array
}

/// Verifies a shortest-path tree: every recorded parent edge exists, and
/// walking the path from the source reproduces the claimed distance.
pub fn verify_sssp_tree(g: &Graph<f32>, source: VertexId, tree: &SsspTree, eps: f32) -> bool {
    for v in g.vertices() {
        let d = tree.dist[v as usize];
        if v == source || d.is_infinite() {
            continue;
        }
        let Some(path) = extract_path(&tree.parent, source, v) else {
            return false;
        };
        let mut walked = 0.0f32;
        for pair in path.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            // Find the lightest a→b edge (parallel edges possible).
            let mut best = f32::INFINITY;
            for e in g.get_edges(a) {
                if g.get_dest_vertex(e) == b {
                    best = best.min(g.get_edge_weight(e));
                }
            }
            if best.is_infinite() {
                return false; // parent edge doesn't exist
            }
            walked += best;
        }
        if (walked - d).abs() > eps * (1.0 + d.abs()) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_gen as gen;

    #[test]
    fn sssp_tree_on_diamond() {
        let g = Graph::from_coo(&Coo::from_edges(
            4,
            [(0, 1, 1.0), (0, 2, 4.0), (1, 3, 2.0), (2, 3, 1.0)],
        ));
        let ctx = Context::new(2);
        let tree = sssp_with_parents(execution::par, &ctx, &g, 0);
        assert_eq!(tree.dist, vec![0.0, 1.0, 4.0, 3.0]);
        assert_eq!(extract_path(&tree.parent, 0, 3), Some(vec![0, 1, 3]));
        assert!(verify_sssp_tree(&g, 0, &tree, 1e-6));
    }

    #[test]
    fn tree_distances_match_plain_sssp_on_random_graphs() {
        let ctx = Context::new(4);
        for seed in [3, 12] {
            let coo = gen::gnm(200, 1400, seed);
            let g = Graph::from_coo(&gen::uniform_weights(&coo, 0.1, 2.0, seed));
            let tree = sssp_with_parents(execution::par, &ctx, &g, 0);
            let push = DirectionPolicy::fixed(Direction::Push);
            let plain = crate::sssp::sssp(execution::par, &ctx, &g, 0, push);
            assert_eq!(tree.dist, plain.dist, "seed {seed}");
            assert!(verify_sssp_tree(&g, 0, &tree, 1e-4), "seed {seed}");
        }
    }

    #[test]
    fn unreachable_targets_have_no_path() {
        let g = Graph::from_coo(&Coo::from_edges(3, [(0, 1, 1.0f32)]));
        let ctx = Context::sequential();
        let tree = sssp_with_parents(execution::seq, &ctx, &g, 0);
        assert!(extract_path(&tree.parent, 0, 2).is_none());
        assert!(tree.dist[2].is_infinite());
        assert!(verify_sssp_tree(&g, 0, &tree, 1e-6));
    }

    #[test]
    fn extract_path_detects_cycles() {
        // Corrupt parent array: 1 -> 2 -> 1.
        let parent = vec![INVALID_VERTEX, 2, 1];
        assert_eq!(extract_path(&parent, 0, 1), None);
    }

    #[test]
    fn source_path_is_trivial() {
        let parent = vec![INVALID_VERTEX];
        assert_eq!(extract_path(&parent, 0, 0), Some(vec![0]));
    }
}
