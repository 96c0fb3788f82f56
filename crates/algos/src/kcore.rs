//! k-core decomposition by iterative peeling.
//!
//! The core number of a vertex is the largest k such that it belongs to a
//! subgraph where every vertex has degree ≥ k. The parallel version peels
//! in rounds — the frontier of the round is exactly the set of vertices
//! whose remaining degree fell below k, a natural fit for the
//! frontier/operator abstraction. The sequential baseline is the classic
//! O(m) bucket peeling (Batagelj–Zaveršnik).

use essentials_core::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Core numbers plus peeling metadata.
#[derive(Debug, Clone)]
pub struct KcoreResult {
    /// `core[v]` = core number of v.
    pub core: Vec<u32>,
    /// Peeling rounds executed across all k.
    pub rounds: usize,
}

/// Parallel peeling on a **symmetric** graph: for k = 1, 2, …, repeatedly
/// remove vertices with remaining degree < k (decrementing neighbors
/// atomically) until stable; survivors of the k-phase have core ≥ k.
///
/// Every peel round, across all k, is one [`Enactor::try_run`] iteration
/// (`rounds` = iterations), so the context's budget and fault plan apply;
/// an error panics with its message, as [`crate::sssp::sssp`] does.
pub fn kcore_peel<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
) -> KcoreResult {
    let n = g.get_num_vertices();
    let deg: Vec<AtomicUsize> = g
        .vertices()
        .map(|v| AtomicUsize::new(g.out_degree(v)))
        .collect();
    let core: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let alive = DenseFrontier::new(n);
    for v in g.vertices() {
        alive.insert(v);
    }
    // The vertices not yet peeled, compacted whenever the threshold moves.
    let mut unpeeled: SparseFrontier = g.vertices().collect();
    // Moves `k` to the lowest threshold with a peel set (one above the
    // least remaining degree) and returns that set: the unpeeled vertices
    // whose remaining degree is below it; empty once all are peeled.
    let mut next_peel = |k: &mut u32| -> Result<SparseFrontier, ExecError> {
        let kept = try_filter(policy, ctx, &unpeeled, |v| alive.contains(v))?;
        ctx.recycle_frontier(std::mem::replace(&mut unpeeled, kept));
        let remaining = |v: VertexId| deg[v as usize].load(Ordering::Acquire);
        if let Some(least) = unpeeled.iter().map(remaining).min() {
            *k = (*k).max(least as u32 + 1);
        }
        let threshold = *k as usize;
        try_filter(policy, ctx, &unpeeled, |v| remaining(v) < threshold)
    };
    let mut k = 1u32;
    let init = next_peel(&mut k).unwrap_or_else(|e| panic!("{e}"));
    let run = Enactor::for_ctx(ctx).try_run(init, |_, peel| {
        let threshold = k;
        // Mark the peeled vertices dead with core number k-1.
        try_foreach_active(policy, ctx, &peel, |v| {
            if alive.remove(v) {
                // Relaxed: each vertex is stored exactly once (the
                // `alive.remove` claim), and the only reader is
                // `into_inner` after the final region join below.
                core[v as usize].store(threshold - 1, Ordering::Relaxed);
            }
        })?;
        // Decrement neighbors; those dropping below k join the next peel.
        let out = try_neighbors_expand_unique(policy, ctx, g, &peel, |_src, dst, _e, _w| {
            if !alive.contains(dst) {
                return false;
            }
            let old = deg[dst as usize].fetch_sub(1, Ordering::AcqRel);
            // Activate exactly when the decrement crosses the threshold.
            old == threshold as usize
        })?;
        ctx.recycle_frontier(peel);
        // Only vertices still alive belong in the peel set.
        let next = try_filter(policy, ctx, &out, |v| alive.contains(v))?;
        ctx.recycle_frontier(out);
        if !next.is_empty() {
            return Ok(next);
        }
        // Stable at this k: move on to the next threshold with a peel set.
        ctx.recycle_frontier(next);
        next_peel(&mut k)
    });
    let (last, stats) = run.unwrap_or_else(|e| panic!("{e}"));
    ctx.recycle_frontier(last);
    ctx.recycle_frontier(unpeeled);
    let rounds = stats.iterations;
    KcoreResult {
        core: core.into_iter().map(AtomicU32::into_inner).collect(),
        rounds,
    }
}

/// Sequential bucket peeling (the oracle).
pub fn kcore_sequential<W: EdgeValue>(g: &Graph<W>) -> KcoreResult {
    let n = g.get_num_vertices();
    let mut deg: Vec<usize> = g.vertices().map(|v| g.out_degree(v)).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0);
    // Bucket sort vertices by degree.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); max_deg + 1];
    for v in g.vertices() {
        buckets[deg[v as usize]].push(v);
    }
    let mut core = vec![0u32; n];
    let mut removed = vec![false; n];
    let mut current_core = 0usize;
    for d in 0..=max_deg {
        let mut stack = std::mem::take(&mut buckets[d]);
        while let Some(v) = stack.pop() {
            if removed[v as usize] || deg[v as usize] > d {
                // Stale entry: v was re-bucketed to a smaller degree... which
                // can only be ≤ d, so deg > d means a stale *larger* record.
                continue;
            }
            removed[v as usize] = true;
            current_core = current_core.max(deg[v as usize]);
            core[v as usize] = current_core as u32;
            for &u in g.out_neighbors(v) {
                if !removed[u as usize] && deg[u as usize] > d {
                    deg[u as usize] -= 1;
                    if deg[u as usize] == d {
                        stack.push(u);
                    } else {
                        buckets[deg[u as usize]].push(u);
                    }
                }
            }
        }
    }
    KcoreResult { core, rounds: 0 }
}

/// Verifies core numbers on a symmetric graph by reconstruction: for every
/// distinct k, the subgraph induced by `{v : core[v] ≥ k}` must have min
/// degree ≥ k, and each vertex with core k must drop below k+1 when the
/// (k+1)-threshold peel runs.
pub fn verify_kcore<W: EdgeValue>(g: &Graph<W>, core: &[u32]) -> bool {
    if core.len() != g.get_num_vertices() {
        return false;
    }
    let mut ks: Vec<u32> = core.to_vec();
    ks.sort_unstable();
    ks.dedup();
    for &k in &ks {
        // Induced subgraph {core >= k} must have min degree >= k.
        let inside: Vec<bool> = core.iter().map(|&c| c >= k).collect();
        for v in g.vertices() {
            if !inside[v as usize] {
                continue;
            }
            let d = g
                .out_neighbors(v)
                .iter()
                .filter(|&&u| inside[u as usize])
                .count();
            if d < k as usize {
                return false;
            }
        }
        // Peeling at threshold k+1 must eliminate every core-k vertex.
        let mut deg: Vec<usize> = g
            .vertices()
            .map(|v| {
                g.out_neighbors(v)
                    .iter()
                    .filter(|&&u| inside[u as usize])
                    .count()
            })
            .collect();
        let mut alive = inside.clone();
        let mut queue: Vec<VertexId> = g
            .vertices()
            .filter(|&v| alive[v as usize] && deg[v as usize] < (k + 1) as usize)
            .collect();
        while let Some(v) = queue.pop() {
            if !alive[v as usize] {
                continue;
            }
            alive[v as usize] = false;
            for &u in g.out_neighbors(v) {
                if alive[u as usize] {
                    deg[u as usize] -= 1;
                    if deg[u as usize] < (k + 1) as usize {
                        queue.push(u);
                    }
                }
            }
        }
        // Survivors have core >= k+1; the eliminated must be exactly core k.
        for v in g.vertices() {
            let c = core[v as usize];
            if c == k && alive[v as usize] {
                return false; // claimed core k but survives the k+1 peel
            }
            if c > k && inside[v as usize] && !alive[v as usize] && c == k + 1 {
                // (higher cores may legitimately be peeled at higher
                // thresholds; nothing to check here)
            }
        }
    }
    true
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
    fn complete_graph_core_is_n_minus_1() {
        let g = Graph::from_coo(&gen::complete(6));
        let ctx = Context::new(2);
        let r = kcore_peel(execution::par, &ctx, &g);
        assert!(r.core.iter().all(|&c| c == 5));
    }

    #[test]
    fn tree_core_is_one() {
        let g = sym(&gen::binary_tree(63));
        let ctx = Context::new(2);
        let r = kcore_peel(execution::par, &ctx, &g);
        assert!(r.core.iter().all(|&c| c == 1), "{:?}", &r.core[..8]);
    }

    #[test]
    fn parallel_matches_sequential_on_random_graphs() {
        let ctx = Context::new(4);
        for seed in [2, 4] {
            let g = sym(&gen::gnm(150, 900, seed));
            let par = kcore_peel(execution::par, &ctx, &g);
            let seq = kcore_sequential(&g);
            assert_eq!(par.core, seq.core, "seed {seed}");
            assert!(verify_kcore(&g, &par.core));
        }
    }

    #[test]
    fn triangle_with_tail() {
        // Triangle 0-1-2 (core 2) with a tail 2-3 (core 1), isolated 4.
        let mut coo = Coo::<()>::new(5);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            coo.push(a, b, ());
        }
        let g = sym(&coo);
        let ctx = Context::sequential();
        let r = kcore_peel(execution::seq, &ctx, &g);
        assert_eq!(r.core, vec![2, 2, 2, 1, 0]);
        assert!(verify_kcore(&g, &r.core));
    }

    #[test]
    fn policy_equivalence() {
        let ctx = Context::new(4);
        let g = sym(&gen::rmat(8, 4, gen::RmatParams::default(), 6));
        let a = kcore_peel(execution::seq, &ctx, &g).core;
        let b = kcore_peel(execution::par, &ctx, &g).core;
        assert_eq!(a, b);
    }
}
