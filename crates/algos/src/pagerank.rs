//! PageRank — the fixpoint-ranking workload, one power-iteration body whose
//! plan picks the gather: pull over in-edges, a destination-binned
//! [`BlockedGather`], or an atomic push scatter over out-edges. Same
//! fixpoint, different memory behaviour — the §III-C comparison for a
//! full-frontier algorithm. Dangling vertices (out-degree 0) redistribute
//! their mass along the teleport distribution, keeping the rank vector a
//! probability distribution.

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
    /// The gather that ran: [`Direction::Pull`], [`Direction::BlockedPull`]
    /// or [`Direction::Push`] (the scatter, also for a dense-push plan).
    pub direction: Direction,
}

/// Configuration shared by every plan.
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

/// [`try_pagerank`], panicking on an error.
///
/// ```
/// use essentials_core::prelude::*;
/// use essentials_algos::pagerank::{pagerank, PrConfig};
///
/// // A directed 3-cycle ranks every vertex 1/3; without a CSC the plan
/// // scatters along out-edges.
/// let g = Graph::from_coo(&Coo::<()>::from_edges(3, [(0, 1, ()), (1, 2, ()), (2, 0, ())]));
/// let plan = DirectionPolicy::default();
/// let r = pagerank(execution::par, &Context::new(2), &g, PrConfig::default(), plan);
/// assert_eq!(r.direction, Direction::Push);
/// assert!(r.rank.iter().all(|x| (x - 1.0 / 3.0).abs() < 1e-9));
/// ```
pub fn pagerank<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    cfg: PrConfig,
    plan: DirectionPolicy,
) -> PageRankResult
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
{
    try_pagerank(policy, ctx, g, cfg, plan).unwrap_or_else(|e| panic!("{e}"))
}

/// PageRank by power iteration over any representation, with the gather
/// `plan` picks once per run ([`DirectionPolicy::full_frontier`]):
///
/// * the default plan / `fixed(Pull)` scans each vertex's in-neighbor
///   stream — ascending on every representation, so ranks are
///   **bit-identical** across representations and thread counts;
/// * `fixed(BlockedPull)` replays a [`BlockedGather`] layout: per
///   destination it sums in the scan's order, so it agrees with the scan
///   to the last few ulps and is bit-identical across thread counts;
/// * `fixed(Push | DensePush)` scatters along out-edges with atomic f64
///   adds, so ranks are tolerance-equal, not bit-equal. Every plan
///   scatters on a graph without an in-stream.
///
/// The run budget is checked at iteration boundaries (and inside the
/// scatter at chunk boundaries), and a convergence watchdog turns a
/// non-finite or persistently rising residual into [`ExecError::Diverged`].
pub fn try_pagerank<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    cfg: PrConfig,
    plan: DirectionPolicy,
) -> Result<PageRankResult, ExecError>
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
{
    let (n, d) = (g.num_vertices() as f64, cfg.damping);
    let uniform = vec![1.0 / n; g.num_vertices()];
    power_iteration(policy, ctx, g, cfg, plan, uniform, |dangling| {
        let base = (1.0 - d) / n + d * dangling / n;
        move |_, gathered| base + d * gathered
    })
}

/// [`pagerank`] on the default (pull) plan. Kept as a name because the
/// frozen benchmark calls it with this signature.
pub fn pagerank_pull<P, G>(policy: P, ctx: &Context, g: &G, cfg: PrConfig) -> PageRankResult
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
{
    pagerank(policy, ctx, g, cfg, DirectionPolicy::default())
}

/// Former name of [`pagerank_pull`] on compressed adjacency; the frozen
/// benchmark still calls it.
pub use self::pagerank_pull as pagerank_pull_compressed;

/// [`pagerank`] on the push plan. Kept as a name because the frozen
/// benchmark calls it with this signature.
pub fn pagerank_push<P, G>(policy: P, ctx: &Context, g: &G, cfg: PrConfig) -> PageRankResult
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
{
    pagerank(policy, ctx, g, cfg, DirectionPolicy::fixed(Direction::Push))
}

/// The in-edge sum of one power-iteration run, `out[v] = finalize(v, Σ
/// value(u) over u → v)`, as its direction computes it.
pub(crate) enum Gather {
    /// Sum over each vertex's in-neighbor stream.
    Scan,
    /// The destination-binned layout, built from the out-adjacency.
    Blocked(BlockedGather),
    /// One accumulator per destination for the atomic out-edge scatter.
    Scatter(Vec<AtomicF64>),
}

impl Gather {
    /// The gather for a [`DirectionPolicy::full_frontier`] direction.
    pub(crate) fn new<P, G>(policy: P, ctx: &Context, g: &G, direction: Direction) -> Self
    where
        P: ExecutionPolicy,
        G: OutAdjacency + Sync,
    {
        match direction {
            Direction::Pull => Gather::Scan,
            Direction::BlockedPull => {
                let bins = BlockedConfig::default();
                Gather::Blocked(BlockedGather::over_out_edges(policy, ctx, g, bins))
            }
            _ => Gather::Scatter((0..g.num_vertices()).map(|_| AtomicF64::new(0.0)).collect()),
        }
    }

    /// One gather into `out`. The scan sums in ascending source order on
    /// every representation, so the f64 sum associates identically; the
    /// blocked layout keeps that order per destination; the scatter's
    /// order is the schedule's.
    pub(crate) fn run<P, G, V, Z>(
        &mut self,
        policy: P,
        ctx: &Context,
        g: &G,
        value: V,
        finalize: Z,
        out: &mut [f64],
    ) -> Result<(), ExecError>
    where
        P: ExecutionPolicy,
        G: OutAdjacency + InAdjacency + Sync,
        V: Fn(usize) -> f64 + Sync,
        Z: Fn(usize, f64) -> f64 + Sync,
    {
        match self {
            Gather::Scan => fill_indexed_into(policy, ctx, out, |v| {
                let gathered: f64 = g
                    .in_neighbors_from(v as VertexId)
                    .map(|u| value(u as usize))
                    .sum();
                finalize(v, gathered)
            }),
            Gather::Blocked(layout) => layout.gather(policy, ctx, value, finalize, out),
            Gather::Scatter(acc) => {
                try_foreach_vertex(policy, ctx, out.len(), |u| {
                    let share = value(u as usize);
                    for d in g.out_neighbors_from(u) {
                        acc[d as usize].fetch_add(share, Ordering::AcqRel);
                    }
                })?;
                // Read and reset each accumulator for the next scatter.
                fill_indexed_into(policy, ctx, out, |v| {
                    let gathered = acc[v].load(Ordering::Acquire);
                    acc[v].store(0.0, Ordering::Relaxed);
                    finalize(v, gathered)
                });
            }
        }
        Ok(())
    }

    /// Returns a blocked layout's buffers to the context.
    pub(crate) fn finish(self, ctx: &Context) {
        if let Gather::Blocked(layout) = self {
            layout.finish(ctx);
        }
    }
}

/// The one power-iteration body, from `rank`. `teleport(dangling)` gives
/// the iteration's `finalize(v, gathered)`: where the `(1 - d)` mass and
/// the dangling mass land — uniformly for PageRank, on the seeds for
/// personalized PageRank.
fn power_iteration<P, G, T, Z>(
    policy: P,
    ctx: &Context,
    g: &G,
    cfg: PrConfig,
    plan: DirectionPolicy,
    rank: Vec<f64>,
    teleport: T,
) -> Result<PageRankResult, ExecError>
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
    T: Fn(f64) -> Z,
    Z: Fn(usize, f64) -> f64 + Sync,
{
    let direction = plan.full_frontier(g);
    let n = g.num_vertices();
    if n == 0 {
        return Ok(PageRankResult {
            rank,
            stats: LoopStats::default(),
            final_error: 0.0,
            direction,
        });
    }
    let mut gather = Gather::new(policy, ctx, g, direction);
    // Each source contributes `rank[u] / outdeg(u)`, so the reciprocals are
    // taken once per run.
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
            let finalize = teleport(sum_dangling(policy, ctx, g, r));
            let (r_now, inv) = (&*r, &inv_deg);
            gather.run(policy, ctx, g, |u| r_now[u] * inv[u], finalize, &mut next)?;
            let err: f64 = l1_diff(policy, ctx, r, &next);
            std::mem::swap(r, &mut next);
            final_error = err;
            watchdog.check(iter, err)?;
            Ok(err < cfg.tolerance)
        });
    gather.finish(ctx);
    ctx.recycle_f64_buffer(next);
    ctx.recycle_f64_buffer(inv_deg);
    let (rank, stats) = result?;
    Ok(PageRankResult {
        rank,
        stats,
        final_error,
        direction,
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
    sum_f64(policy, ctx, r.len(), |v| {
        if g.out_degree(v as VertexId) == 0 {
            r[v]
        } else {
            0.0
        }
    })
}

fn l1_diff<P: ExecutionPolicy>(policy: P, ctx: &Context, a: &[f64], b: &[f64]) -> f64 {
    sum_f64(policy, ctx, a.len(), |i| (a[i] - b[i]).abs())
}

/// [`try_personalized_pagerank`], panicking on an error.
pub fn personalized_pagerank<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    seeds: &[VertexId],
    cfg: PrConfig,
) -> PageRankResult
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
{
    try_personalized_pagerank(policy, ctx, g, seeds, cfg).unwrap_or_else(|e| panic!("{e}"))
}

/// Personalized PageRank: the random surfer teleports back to the `seeds`
/// set instead of to a uniform vertex, ranking vertices by proximity to the
/// seeds — [`try_pagerank`]'s body and contract on the default (pull) plan,
/// with the teleport concentrated there. An empty seed set on a non-empty
/// graph, or a seed outside the graph, is [`ExecError::InvalidInput`]
/// before any work runs.
pub fn try_personalized_pagerank<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    seeds: &[VertexId],
    cfg: PrConfig,
) -> Result<PageRankResult, ExecError>
where
    P: ExecutionPolicy,
    G: OutAdjacency + InAdjacency + Sync,
{
    let n = g.num_vertices();
    if seeds.is_empty() && n > 0 {
        return Err(ExecError::InvalidInput {
            detail: "personalized PageRank needs at least one seed".into(),
        });
    }
    if let Some(&bad) = seeds.iter().find(|&&s| s as usize >= n) {
        return Err(ExecError::InvalidInput {
            detail: format!("seed {bad} out of range (graph has {n} vertices)"),
        });
    }
    // Teleport distribution: uniform over the seed set.
    let mut teleport = take_zeroed_f64(ctx, n);
    for &s in seeds {
        teleport[s as usize] += 1.0 / seeds.len() as f64;
    }
    let (t, d) = (&teleport, cfg.damping);
    let plan = DirectionPolicy::default();
    let result = power_iteration(policy, ctx, g, cfg, plan, t.clone(), |dangling| {
        // Dangling mass also returns to the seeds.
        move |v, gathered| (1.0 - d) * t[v] + d * (gathered + dangling * t[v])
    });
    ctx.recycle_f64_buffer(teleport);
    result
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

    #[test]
    fn every_plan_scatters_without_the_in_adjacency() {
        // No `with_csc`: every plan falls back to the scatter, which reads
        // out-edges only.
        let coo = gen::gnm(200, 1500, 7);
        let (g, with_csc) = (Graph::from_coo(&coo), Graph::from_coo(&coo).with_csc());
        let (ctx, cfg) = (Context::new(2), PrConfig::default());
        let fixed = DirectionPolicy::fixed;
        for plan in [
            fixed(Direction::Push),
            fixed(Direction::DensePush),
            fixed(Direction::Pull),
            fixed(Direction::BlockedPull),
            DirectionPolicy::default(),
        ] {
            let r = pagerank(execution::par, &ctx, &g, cfg, plan);
            assert_eq!(r.direction, Direction::Push, "{plan:?}");
            assert!(verify_pagerank(&with_csc, &r.rank, 0.85, 1e-7), "{plan:?}");
        }
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
        // Benches that plot work-per-iteration rely on the fixpoint loop
        // populating frontier_trace.
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
