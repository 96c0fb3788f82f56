//! PageRank — the fixpoint-ranking workload, in both traversal directions.
//!
//! The pull formulation gathers `rank[u]/outdeg(u)` over in-edges (CSC);
//! the push formulation scatters contributions over out-edges with atomic
//! adds (CSR). Same fixpoint, different memory behaviour — the §III-C
//! comparison for a full-frontier algorithm. Dangling
//! vertices (out-degree 0) redistribute their mass uniformly, keeping the
//! rank vector a probability distribution.

use essentials_core::prelude::*;
use essentials_parallel::atomics::AtomicF64;
use std::sync::atomic::Ordering;

/// PageRank output.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Rank per vertex; sums to 1.
    pub rank: Vec<f64>,
    /// Iterations to convergence.
    pub stats: LoopStats,
    /// Final L1 change (below tolerance unless the cap was hit).
    pub final_error: f64,
}

/// Configuration shared by both formulations.
#[derive(Debug, Clone, Copy)]
pub struct PrConfig {
    /// Damping factor (probability of following a link).
    pub damping: f64,
    /// Convergence threshold on the L1 norm of the per-iteration change.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iterations: usize,
}

impl Default for PrConfig {
    fn default() -> Self {
        PrConfig {
            damping: 0.85,
            tolerance: 1e-9,
            max_iterations: 200,
        }
    }
}

/// Consecutive residual rises tolerated before a power-iteration loop is
/// declared divergent by [`ResidualWatchdog`].
pub(crate) const RESIDUAL_RISE_STREAK: usize = 5;

/// Convergence watchdog for power-iteration fixpoints (PageRank, HITS):
/// a non-finite residual (NaN / ±inf — e.g. a damping factor > 1 that
/// overflowed, or NaN inputs) fails immediately; a residual that *rises*
/// for [`RESIDUAL_RISE_STREAK`] consecutive iterations fails as divergent
/// without waiting for the iteration cap. A converging power iteration
/// shrinks its residual geometrically, so a sustained rise is a reliable
/// divergence signal while transient float wobble is tolerated.
pub(crate) struct ResidualWatchdog {
    prev: f64,
    rising: usize,
}

impl ResidualWatchdog {
    pub(crate) fn new() -> Self {
        ResidualWatchdog {
            prev: f64::INFINITY,
            rising: 0,
        }
    }

    pub(crate) fn check(&mut self, iteration: usize, err: f64) -> Result<(), ExecError> {
        if !err.is_finite() {
            return Err(ExecError::Diverged {
                iteration,
                detail: format!("non-finite residual {err}"),
            });
        }
        if err > self.prev {
            self.rising += 1;
            if self.rising >= RESIDUAL_RISE_STREAK {
                return Err(ExecError::Diverged {
                    iteration,
                    detail: format!(
                        "residual rose for {RESIDUAL_RISE_STREAK} consecutive iterations (now {err:.3e})"
                    ),
                });
            }
        } else {
            self.rising = 0;
        }
        self.prev = err;
        Ok(())
    }
}

/// Pull (gather) PageRank over the in-adjacency of any representation — a
/// raw [`Graph`] built `with_csc`, a [`CompressedGraph`] compressed from
/// one, or a [`CompressedGraphView`] over an mmapped container. In-neighbors
/// stream in ascending order everywhere, so the per-vertex f64 gather sums
/// in the same order and ranks are **bit-identical** across representations
/// (`tests/differential.rs`).
pub fn pagerank_pull<P, G>(policy: P, ctx: &Context, g: &G, cfg: PrConfig) -> PageRankResult
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
{
    match try_pagerank_pull(policy, ctx, g, cfg) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`pagerank_pull`]: the run budget is checked at iteration
/// boundaries, and a convergence watchdog turns a non-finite or
/// persistently rising residual into [`ExecError::Diverged`] instead of
/// spinning to the iteration cap on garbage.
pub fn try_pagerank_pull<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    cfg: PrConfig,
) -> Result<PageRankResult, ExecError>
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
{
    let n = g.num_vertices();
    if n == 0 {
        return Ok(PageRankResult {
            rank: Vec::new(),
            stats: LoopStats::default(),
            final_error: 0.0,
        });
    }
    let rank = vec![1.0 / n as f64; n];
    let inv_deg = take_inv_out_degrees(policy, ctx, g);
    let mut next = take_zeroed_f64(ctx, n);
    let mut final_error = f64::INFINITY;
    let mut watchdog = ResidualWatchdog::new();
    let result = Enactor::for_ctx(ctx)
        .max_iterations(cfg.max_iterations)
        .try_run_until(rank, |iter, r, progress| {
            // Every vertex is updated each iteration — the fixpoint loop's
            // natural work unit for the bench trace.
            progress.report_work(n);
            // Mass of dangling vertices, redistributed uniformly.
            let dangling: f64 = sum_dangling(policy, ctx, g, r);
            let base = (1.0 - cfg.damping) / n as f64 + cfg.damping * dangling / n as f64;
            let (r_now, inv) = (&*r, &inv_deg);
            fill_indexed_into(policy, ctx, &mut next, |v| {
                let v = v as VertexId;
                // Ascending source order on every representation, so the
                // f64 sum associates identically.
                let gathered: f64 = g
                    .in_neighbors_from(v, 0)
                    .map(|u| r_now[u as usize] * inv[u as usize])
                    .sum();
                base + cfg.damping * gathered
            });
            let err: f64 = l1_diff(policy, ctx, r, &next);
            std::mem::swap(r, &mut next);
            final_error = err;
            watchdog.check(iter, err)?;
            Ok(err < cfg.tolerance)
        });
    ctx.recycle_f64_buffer(next);
    ctx.recycle_f64_buffer(inv_deg);
    let (rank, stats) = result?;
    Ok(PageRankResult {
        rank,
        stats,
        final_error,
    })
}

/// Former name of [`pagerank_pull`] on compressed adjacency; the frozen
/// benchmark still calls it.
pub use self::pagerank_pull as pagerank_pull_compressed;

/// Pull PageRank routed through the propagation-blocked gather
/// ([`BlockedGather`]): contributions are binned by destination cache
/// block once per run, then every iteration streams the fixed layout —
/// two sequential passes instead of the CSC scan's per-edge random rank
/// reads. Needs only the CSR (the layout is built from out-edges), and the
/// per-destination accumulation order matches the CSC gather term for
/// term, so results agree with [`pagerank_pull`] to the last few ulps
/// (≤ 1e-12 L∞ in the differential suite) and are bit-identical across
/// thread counts.
pub fn pagerank_pull_blocked<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    cfg: PrConfig,
    bins: BlockedConfig,
) -> PageRankResult {
    match try_pagerank_pull_blocked(policy, ctx, g, cfg, bins) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`pagerank_pull_blocked`] — same budget/watchdog contract as
/// [`try_pagerank_pull`].
pub fn try_pagerank_pull_blocked<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    cfg: PrConfig,
    bins: BlockedConfig,
) -> Result<PageRankResult, ExecError> {
    let n = g.get_num_vertices();
    if n == 0 {
        return Ok(PageRankResult {
            rank: Vec::new(),
            stats: LoopStats::default(),
            final_error: 0.0,
        });
    }
    let rank = vec![1.0 / n as f64; n];
    let inv_deg = take_inv_out_degrees(policy, ctx, g);
    let mut next = take_zeroed_f64(ctx, n);
    let mut gatherer = BlockedGather::over_out_edges(policy, ctx, g, bins);
    let mut final_error = f64::INFINITY;
    let mut watchdog = ResidualWatchdog::new();
    let result = Enactor::for_ctx(ctx)
        .max_iterations(cfg.max_iterations)
        .try_run_until(rank, |iter, r, progress| {
            progress.report_work(n);
            let dangling: f64 = sum_dangling(policy, ctx, g, r);
            let base = (1.0 - cfg.damping) / n as f64 + cfg.damping * dangling / n as f64;
            let (r_now, inv) = (&*r, &inv_deg);
            gatherer.gather(
                policy,
                ctx,
                |u| r_now[u] * inv[u],
                |_, gathered| base + cfg.damping * gathered,
                &mut next,
            );
            let err: f64 = l1_diff(policy, ctx, r, &next);
            std::mem::swap(r, &mut next);
            final_error = err;
            watchdog.check(iter, err)?;
            Ok(err < cfg.tolerance)
        });
    gatherer.finish(ctx);
    ctx.recycle_f64_buffer(next);
    ctx.recycle_f64_buffer(inv_deg);
    let (rank, stats) = result?;
    Ok(PageRankResult {
        rank,
        stats,
        final_error,
    })
}

/// Push (scatter) PageRank over the CSR: each vertex adds its contribution
/// to every out-neighbor's accumulator with an atomic f64 add.
pub fn pagerank_push<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    cfg: PrConfig,
) -> PageRankResult {
    match try_pagerank_push(policy, ctx, g, cfg) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`pagerank_push`] — same watchdog and budget contract as
/// [`try_pagerank_pull`]; the scatter additionally routes through
/// [`try_foreach_vertex`], so budget/fault hooks also fire at chunk
/// boundaries inside an iteration.
pub fn try_pagerank_push<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    cfg: PrConfig,
) -> Result<PageRankResult, ExecError> {
    let n = g.get_num_vertices();
    if n == 0 {
        return Ok(PageRankResult {
            rank: Vec::new(),
            stats: LoopStats::default(),
            final_error: 0.0,
        });
    }
    let rank = vec![1.0 / n as f64; n];
    let mut final_error = f64::INFINITY;
    let mut watchdog = ResidualWatchdog::new();
    let (rank, stats) = Enactor::for_ctx(ctx)
        .max_iterations(cfg.max_iterations)
        .try_run_until(rank, |iter, r, progress| {
            progress.report_work(n);
            let dangling: f64 = sum_dangling(policy, ctx, g, r);
            let base = (1.0 - cfg.damping) / n as f64 + cfg.damping * dangling / n as f64;
            let acc: Vec<AtomicF64> = (0..n).map(|_| AtomicF64::new(0.0)).collect();
            try_foreach_vertex(policy, ctx, n, |v| {
                let deg = g.out_degree(v);
                if deg == 0 {
                    return;
                }
                let share = r[v as usize] / deg as f64;
                for e in g.get_edges(v) {
                    acc[g.get_dest_vertex(e) as usize].fetch_add(share, Ordering::AcqRel);
                }
            })?;
            let next: Vec<f64> = acc
                .into_iter()
                .map(|a| base + cfg.damping * a.into_inner())
                .collect();
            let err = l1_diff(policy, ctx, r, &next);
            *r = next;
            final_error = err;
            watchdog.check(iter, err)?;
            Ok(err < cfg.tolerance)
        })?;
    Ok(PageRankResult {
        rank,
        stats,
        final_error,
    })
}

/// A pooled buffer holding `1/out_degree(u)` (0 for dangling vertices),
/// computed once per run so the per-edge divide in every gather becomes a
/// multiply. Return it with `Context::recycle_f64_buffer`.
fn take_inv_out_degrees<P: ExecutionPolicy, G: OutAdjacency + Sync>(
    policy: P,
    ctx: &Context,
    g: &G,
) -> Vec<f64> {
    let mut inv = take_zeroed_f64(ctx, g.num_vertices());
    fill_indexed_into(policy, ctx, &mut inv, |u| {
        let d = g.out_degree(u as VertexId);
        if d == 0 {
            0.0
        } else {
            (d as f64).recip()
        }
    });
    inv
}

/// A pooled `f64` buffer resized (zero-filled) to length `n`.
pub(crate) fn take_zeroed_f64(ctx: &Context, n: usize) -> Vec<f64> {
    let mut v = ctx.take_f64_buffer();
    v.resize(n, 0.0); // alloc-ok: once per run, pooled across runs
    v
}

fn sum_dangling<P: ExecutionPolicy, G: OutAdjacency + Sync>(
    policy: P,
    ctx: &Context,
    g: &G,
    r: &[f64],
) -> f64 {
    crate::pagerank::sum_f64_over(policy, ctx, r.len(), |v| {
        if g.out_degree(v as VertexId) == 0 {
            r[v]
        } else {
            0.0
        }
    })
}

fn l1_diff<P: ExecutionPolicy>(policy: P, ctx: &Context, a: &[f64], b: &[f64]) -> f64 {
    sum_f64_over(policy, ctx, a.len(), |i| (a[i] - b[i]).abs())
}

fn sum_f64_over<P: ExecutionPolicy, M: Fn(usize) -> f64 + Sync>(
    policy: P,
    ctx: &Context,
    n: usize,
    map: M,
) -> f64 {
    essentials_core::operators::reduce::sum_f64(policy, ctx, n, map)
}

/// Personalized PageRank: the random surfer teleports back to the `seeds`
/// set instead of to a uniform vertex (the `(1-d)` mass concentrates
/// there), ranking vertices by proximity to the seeds. Pull-direction
/// gather; requires `with_csc`.
pub fn personalized_pagerank<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    seeds: &[VertexId],
    cfg: PrConfig,
) -> PageRankResult {
    let n = g.get_num_vertices();
    assert!(!seeds.is_empty() || n == 0, "PPR needs at least one seed");
    if n == 0 {
        return PageRankResult {
            rank: Vec::new(),
            stats: LoopStats::default(),
            final_error: 0.0,
        };
    }
    // Teleport distribution: uniform over the seed set.
    let mut teleport = vec![0.0f64; n];
    for &s in seeds {
        teleport[s as usize] += 1.0 / seeds.len() as f64;
    }
    let teleport = &teleport;
    let rank = teleport.clone();
    let inv_deg = take_inv_out_degrees(policy, ctx, g);
    let mut next = take_zeroed_f64(ctx, n);
    let mut final_error = f64::INFINITY;
    let (rank, stats) = Enactor::for_ctx(ctx)
        .max_iterations(cfg.max_iterations)
        .run_until(rank, |_, r, progress| {
            progress.report_work(n);
            let dangling: f64 = sum_dangling(policy, ctx, g, r);
            let (r_now, inv) = (&*r, &inv_deg);
            fill_indexed_into(policy, ctx, &mut next, |v| {
                let vid = v as VertexId;
                let gathered: f64 = g
                    .in_neighbors(vid)
                    .iter()
                    .map(|&u| r_now[u as usize] * inv[u as usize])
                    .sum();
                // Dangling mass also returns to the seeds in PPR.
                (1.0 - cfg.damping) * teleport[v]
                    + cfg.damping * (gathered + dangling * teleport[v])
            });
            let err = l1_diff(policy, ctx, r, &next);
            std::mem::swap(r, &mut next);
            final_error = err;
            err < cfg.tolerance
        });
    ctx.recycle_f64_buffer(next);
    ctx.recycle_f64_buffer(inv_deg);
    PageRankResult {
        rank,
        stats,
        final_error,
    }
}

/// Sequential reference PageRank (same semantics as the pull version).
pub fn pagerank_sequential<W: EdgeValue>(g: &Graph<W>, cfg: PrConfig) -> PageRankResult {
    let ctx = Context::sequential();
    pagerank_pull(execution::seq, &ctx, g, cfg)
}

/// Checks that `rank` is a probability distribution (sums to 1) and is a
/// fixpoint of the PageRank equation within `tol` per vertex.
pub fn verify_pagerank<W: EdgeValue>(g: &Graph<W>, rank: &[f64], damping: f64, tol: f64) -> bool {
    let n = g.get_num_vertices();
    if rank.len() != n {
        return false;
    }
    if n == 0 {
        return true;
    }
    let total: f64 = rank.iter().sum();
    if (total - 1.0).abs() > 1e-6 {
        return false;
    }
    let dangling: f64 = g
        .vertices()
        .filter(|&v| g.out_degree(v) == 0)
        .map(|v| rank[v as usize])
        .sum();
    let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
    g.vertices().all(|v| {
        let gathered: f64 = g
            .in_neighbors(v)
            .iter()
            .map(|&u| rank[u as usize] / g.out_degree(u) as f64)
            .sum();
        (rank[v as usize] - (base + damping * gathered)).abs() <= tol
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_gen as gen;

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn push_and_pull_converge_to_the_same_fixpoint() {
        let g = Graph::from_coo(&gen::rmat(8, 8, gen::RmatParams::default(), 2)).with_csc();
        let ctx = Context::new(4);
        let cfg = PrConfig::default();
        let pull = pagerank_pull(execution::par, &ctx, &g, cfg);
        let push = pagerank_push(execution::par, &ctx, &g, cfg);
        assert!(close(&pull.rank, &push.rank, 1e-7));
        assert!(verify_pagerank(&g, &pull.rank, cfg.damping, 1e-7));
        assert!(verify_pagerank(&g, &push.rank, cfg.damping, 1e-7));
    }

    #[test]
    fn blocked_pull_matches_pull_to_last_ulps() {
        let g = Graph::from_coo(&gen::rmat(9, 8, gen::RmatParams::default(), 5)).with_csc();
        let ctx = Context::new(4);
        let cfg = PrConfig {
            max_iterations: 25,
            tolerance: 0.0,
            ..PrConfig::default()
        };
        let pull = pagerank_pull(execution::par, &ctx, &g, cfg);
        // Tiny bins stress multi-bin flushing even at test scale.
        let bins = BlockedConfig { bin_bits: 6 };
        let blocked = pagerank_pull_blocked(execution::par, &ctx, &g, cfg, bins);
        assert_eq!(blocked.stats.iterations, pull.stats.iterations);
        let linf = pull
            .rank
            .iter()
            .zip(&blocked.rank)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(linf <= 1e-12, "L∞ {linf}");
        assert!(verify_pagerank(&g, &blocked.rank, cfg.damping, 1e-7));
    }

    #[test]
    fn blocked_pull_is_bit_identical_across_thread_counts() {
        let g = Graph::from_coo(&gen::rmat(8, 8, gen::RmatParams::default(), 11)).with_csc();
        let cfg = PrConfig {
            max_iterations: 15,
            tolerance: 0.0,
            ..PrConfig::default()
        };
        let bins = BlockedConfig { bin_bits: 5 };
        let mut reference: Option<Vec<f64>> = None;
        for threads in [1, 2, 8] {
            let ctx = Context::new(threads);
            let r = pagerank_pull_blocked(execution::par, &ctx, &g, cfg, bins);
            match &reference {
                None => reference = Some(r.rank),
                Some(want) => assert_eq!(&r.rank, want, "threads={threads}"),
            }
        }
    }

    #[test]
    fn policy_equivalence() {
        let g = Graph::from_coo(&gen::gnm(200, 1500, 7)).with_csc();
        let ctx = Context::new(4);
        let cfg = PrConfig::default();
        let seq = pagerank_pull(execution::seq, &ctx, &g, cfg);
        let par = pagerank_pull(execution::par, &ctx, &g, cfg);
        assert!(close(&seq.rank, &par.rank, 1e-9));
    }

    #[test]
    fn cycle_gives_uniform_rank() {
        let g = Graph::from_coo(&gen::cycle(10)).with_csc();
        let ctx = Context::sequential();
        let r = pagerank_pull(execution::seq, &ctx, &g, PrConfig::default());
        for &x in &r.rank {
            assert!((x - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn star_hub_receives_most_rank() {
        // Directed spokes into vertex 0.
        let mut coo = Coo::<()>::new(11);
        for v in 1..=10 {
            coo.push(v, 0, ());
        }
        let g = Graph::from_coo(&coo).with_csc();
        let ctx = Context::sequential();
        let r = pagerank_pull(execution::seq, &ctx, &g, PrConfig::default());
        assert!(r.rank[0] > r.rank[1] * 3.0);
        assert!(verify_pagerank(&g, &r.rank, 0.85, 1e-7));
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // 0 -> 1, 1 dangling.
        let g = Graph::from_coo(&Coo::<()>::from_edges(2, [(0, 1, ())])).with_csc();
        let ctx = Context::sequential();
        let r = pagerank_pull(execution::seq, &ctx, &g, PrConfig::default());
        assert!((r.rank.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(verify_pagerank(&g, &r.rank, 0.85, 1e-7));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_coo(&Coo::<()>::new(0)).with_csc();
        let ctx = Context::sequential();
        let r = pagerank_pull(execution::seq, &ctx, &g, PrConfig::default());
        assert!(r.rank.is_empty());
    }

    #[test]
    fn ppr_concentrates_rank_near_the_seed() {
        // Two cliques joined by one bridge edge: PPR seeded in clique A
        // must rank every A-vertex above every B-vertex.
        let mut coo = Coo::<()>::new(10);
        for a in 0..5u32 {
            for b in 0..5u32 {
                if a != b {
                    coo.push(a, b, ());
                    coo.push(a + 5, b + 5, ());
                }
            }
        }
        coo.push(4, 5, ());
        coo.push(5, 4, ());
        let g = Graph::from_coo(&coo).with_csc();
        let ctx = Context::new(2);
        let r = personalized_pagerank(execution::par, &ctx, &g, &[0], PrConfig::default());
        let min_a = (0..5).map(|v| r.rank[v]).fold(f64::INFINITY, f64::min);
        let max_b = (5..10).map(|v| r.rank[v]).fold(0.0f64, f64::max);
        assert!(min_a > max_b, "A {min_a} vs B {max_b}");
        assert!((r.rank.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ppr_with_all_seeds_equals_global_pagerank() {
        let g = Graph::from_coo(&gen::gnm(100, 700, 3)).with_csc();
        let ctx = Context::new(2);
        let seeds: Vec<VertexId> = g.vertices().collect();
        let cfg = PrConfig::default();
        let ppr = personalized_pagerank(execution::par, &ctx, &g, &seeds, cfg);
        let pr = pagerank_pull(execution::par, &ctx, &g, cfg);
        for (a, b) in ppr.rank.iter().zip(&pr.rank) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn ppr_policy_equivalence() {
        let g = Graph::from_coo(&gen::gnm(80, 400, 9)).with_csc();
        let ctx = Context::new(4);
        let a = personalized_pagerank(execution::seq, &ctx, &g, &[3, 7], PrConfig::default());
        let b = personalized_pagerank(execution::par, &ctx, &g, &[3, 7], PrConfig::default());
        assert_eq!(a.rank, b.rank);
    }

    #[test]
    fn frontier_trace_has_one_entry_per_iteration() {
        // run_until used to leave frontier_trace empty; benches that plot
        // work-per-iteration rely on it being populated.
        let g = Graph::from_coo(&gen::gnm(200, 1500, 7)).with_csc();
        let ctx = Context::new(2);
        for r in [
            pagerank_pull(execution::par, &ctx, &g, PrConfig::default()),
            pagerank_push(execution::par, &ctx, &g, PrConfig::default()),
            personalized_pagerank(execution::par, &ctx, &g, &[0], PrConfig::default()),
        ] {
            assert!(r.stats.iterations > 0);
            assert_eq!(r.stats.frontier_trace.len(), r.stats.iterations);
            assert!(r.stats.frontier_trace.iter().all(|&w| w == 200));
        }
    }

    #[test]
    fn iteration_cap_is_respected() {
        let g = Graph::from_coo(&gen::gnm(100, 500, 1)).with_csc();
        let ctx = Context::sequential();
        let cfg = PrConfig {
            max_iterations: 3,
            tolerance: 0.0,
            ..PrConfig::default()
        };
        let r = pagerank_pull(execution::seq, &ctx, &g, cfg);
        assert_eq!(r.stats.iterations, 3);
        assert!(r.stats.hit_iteration_cap);
    }
}
