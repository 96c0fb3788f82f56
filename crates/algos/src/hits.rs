//! HITS (Kleinberg's hubs & authorities) — power iteration using both
//! traversal directions at once: authority scores gather over in-edges,
//! hub scores over out-edges. A natural consumer of the
//! multi-representation graph container.

use essentials_core::prelude::*;

use crate::pagerank::{take_zeroed_f64, Gather, ResidualWatchdog};

/// HITS scores.
#[derive(Debug, Clone)]
pub struct HitsResult {
    /// Hub score per vertex (L2-normalized).
    pub hub: Vec<f64>,
    /// Authority score per vertex (L2-normalized).
    pub authority: Vec<f64>,
    /// Iterations run.
    pub stats: LoopStats,
    /// L1 change of the combined score vectors at the last completed
    /// iteration — the achieved residual, reported alongside partial
    /// (iteration-capped / browned-out) results. Zero for the empty graph.
    pub final_error: f64,
    /// The authority gather that ran: [`Direction::Pull`] (the adjacency
    /// scans), [`Direction::BlockedPull`] or [`Direction::Push`] (the
    /// scatter).
    pub direction: Direction,
}

/// Configuration for the power iteration.
#[derive(Debug, Clone, Copy)]
pub struct HitsConfig {
    /// Convergence threshold on the L1 change of both vectors.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for HitsConfig {
    fn default() -> Self {
        HitsConfig {
            tolerance: 1e-10,
            max_iterations: 100,
        }
    }
}

/// [`try_hits`], panicking on an error.
pub fn hits<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    cfg: HitsConfig,
    plan: DirectionPolicy,
) -> HitsResult
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
{
    try_hits(policy, ctx, g, cfg, plan).unwrap_or_else(|e| panic!("{e}"))
}

/// HITS over any representation with both adjacency streams, with the
/// gathers `plan` picks once per run ([`DirectionPolicy::full_frontier`]):
/// the default plan scans the streams (`auth'[v] = Σ hub[u]` over
/// in-neighbors, then `hub'[u] = Σ auth'[v]` over out-neighbors);
/// `fixed(BlockedPull)` replays two [`BlockedGather`] layouts that sum in
/// the scans' order — agreeing with them to the last few ulps,
/// bit-identical across thread counts.
/// A push plan — every plan, on a graph without an in-stream — scatters
/// the authority half along out-edges with atomic adds (tolerance-equal to
/// the scans) and scans the hub half's out-edges. The run budget and the
/// power-iteration watchdog work as in
/// [`try_pagerank`](crate::pagerank::try_pagerank).
pub fn try_hits<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    cfg: HitsConfig,
    plan: DirectionPolicy,
) -> Result<HitsResult, ExecError>
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
{
    let direction = plan.full_frontier(g);
    let n = g.num_vertices();
    if n == 0 {
        return Ok(HitsResult {
            hub: Vec::new(),
            authority: Vec::new(),
            stats: LoopStats::default(),
            final_error: 0.0,
            direction,
        });
    }
    let init = (vec![1.0f64; n], vec![1.0f64; n]);
    let mut next_auth = take_zeroed_f64(ctx, n);
    let mut next_hub = take_zeroed_f64(ctx, n);
    // auth'[v] sums hub over in-edges (u → v): PageRank's gather. hub'[u]
    // sums auth' over out-edges (u → v): an out-stream scan, or a blocked
    // layout in which auth' scatters along in-edges.
    let mut to_auth = Gather::new(policy, ctx, g, direction);
    let mut to_hub = (direction == Direction::BlockedPull)
        .then(|| BlockedGather::over_in_edges(policy, ctx, g, BlockedConfig::default()));
    let mut watchdog = ResidualWatchdog::new();
    let mut final_error = f64::INFINITY;
    let result = Enactor::for_ctx(ctx)
        .max_iterations(cfg.max_iterations)
        .try_run_until(init, |iter, (hub, auth), progress| {
            // Both score vectors are recomputed in full each iteration,
            // into pooled double-buffers that swap with the state.
            progress.report_work(n);
            let h = &*hub;
            to_auth.run(policy, ctx, g, |u| h[u], |_, acc| acc, &mut next_auth)?;
            l2_normalize(&mut next_auth);
            let na = &next_auth;
            match &mut to_hub {
                Some(layout) => layout.gather(policy, ctx, |v| na[v], |_, acc| acc, &mut next_hub),
                None => fill_indexed_into(policy, ctx, &mut next_hub, |u| {
                    g.out_neighbors_from(u as VertexId)
                        .map(|v| na[v as usize])
                        .sum()
                }),
            }
            l2_normalize(&mut next_hub);
            let err: f64 = hub
                .iter()
                .zip(&next_hub)
                .chain(auth.iter().zip(&next_auth))
                .map(|(a, b)| (a - b).abs())
                .sum();
            std::mem::swap(hub, &mut next_hub);
            std::mem::swap(auth, &mut next_auth);
            final_error = err;
            watchdog.check(iter, err)?;
            Ok(err < cfg.tolerance)
        });
    to_auth.finish(ctx);
    if let Some(layout) = to_hub {
        layout.finish(ctx);
    }
    ctx.recycle_f64_buffer(next_auth);
    ctx.recycle_f64_buffer(next_hub);
    let ((hub, authority), stats) = result?;
    Ok(HitsResult {
        hub,
        authority,
        stats,
        final_error,
        direction,
    })
}

fn l2_normalize(v: &mut [f64]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_gen as gen;

    fn scan() -> DirectionPolicy {
        DirectionPolicy::default()
    }

    #[test]
    fn star_hub_and_authorities() {
        // 0 points at 1..=5: vertex 0 is the pure hub, 1..=5 pure
        // authorities.
        let mut coo = Coo::<()>::new(6);
        for v in 1..=5 {
            coo.push(0, v, ());
        }
        let g = Graph::from_coo(&coo).with_csc();
        let ctx = Context::sequential();
        let r = hits(execution::seq, &ctx, &g, HitsConfig::default(), scan());
        assert!((r.hub[0] - 1.0).abs() < 1e-6);
        assert!(r.hub[1].abs() < 1e-6);
        assert!(r.authority[0].abs() < 1e-6);
        for v in 1..=5 {
            assert!((r.authority[v] - (1.0f64 / 5.0f64.sqrt())).abs() < 1e-6);
        }
    }

    #[test]
    fn policy_equivalence() {
        let g = Graph::from_coo(&gen::gnm(150, 800, 4)).with_csc();
        let ctx = Context::new(4);
        let a = hits(execution::seq, &ctx, &g, HitsConfig::default(), scan());
        let b = hits(execution::par, &ctx, &g, HitsConfig::default(), scan());
        for (x, y) in a.hub.iter().zip(&b.hub) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn push_plans_and_csr_only_graphs_scatter_the_authorities() {
        let coo = gen::gnm(150, 800, 4);
        let g = Graph::from_coo(&coo).with_csc();
        let (ctx, cfg) = (Context::new(2), HitsConfig::default());
        let scanned = hits(execution::par, &ctx, &g, cfg, scan());
        let csr_only = Graph::from_coo(&coo);
        for (g, plan) in [
            (&g, DirectionPolicy::fixed(Direction::Push)),
            (&g, DirectionPolicy::fixed(Direction::DensePush)),
            (&csr_only, scan()),
            (&csr_only, DirectionPolicy::fixed(Direction::BlockedPull)),
        ] {
            let r = hits(execution::par, &ctx, g, cfg, plan);
            assert_eq!(r.direction, Direction::Push, "{plan:?}");
            for (a, b) in r.hub.iter().zip(&scanned.hub) {
                assert!((a - b).abs() < 1e-9, "{plan:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn final_error_reports_the_achieved_residual() {
        let g = Graph::from_coo(&gen::gnm(150, 800, 4)).with_csc();
        let ctx = Context::new(2);
        // A tightly capped partial run reports how far it got...
        let short = hits(
            execution::par,
            &ctx,
            &g,
            HitsConfig {
                tolerance: 0.0,
                max_iterations: 2,
            },
            scan(),
        );
        assert!(short.final_error.is_finite());
        assert!(short.final_error > 0.0);
        // ...and a much longer run achieves a strictly smaller residual.
        let long = hits(
            execution::par,
            &ctx,
            &g,
            HitsConfig {
                tolerance: 1e-12,
                max_iterations: 80,
            },
            scan(),
        );
        assert!(long.final_error < short.final_error);
    }

    #[test]
    fn scores_are_normalized() {
        let g = Graph::from_coo(&gen::rmat(7, 4, gen::RmatParams::default(), 2)).with_csc();
        let ctx = Context::new(2);
        let r = hits(execution::par, &ctx, &g, HitsConfig::default(), scan());
        let h: f64 = r.hub.iter().map(|x| x * x).sum();
        let a: f64 = r.authority.iter().map(|x| x * x).sum();
        assert!((h - 1.0).abs() < 1e-9 || h == 0.0);
        assert!((a - 1.0).abs() < 1e-9 || a == 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::<()>::from_coo(&Coo::new(0)).with_csc();
        let ctx = Context::sequential();
        let r = hits(execution::seq, &ctx, &g, HitsConfig::default(), scan());
        assert!(r.hub.is_empty());
    }

    #[test]
    fn frontier_trace_has_one_entry_per_iteration() {
        let g = Graph::from_coo(&gen::gnm(150, 800, 4)).with_csc();
        let ctx = Context::new(2);
        let r = hits(execution::par, &ctx, &g, HitsConfig::default(), scan());
        assert!(r.stats.iterations > 0);
        assert_eq!(r.stats.frontier_trace.len(), r.stats.iterations);
        assert!(r.stats.frontier_trace.iter().all(|&w| w == 150));
    }
}
