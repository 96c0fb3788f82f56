//! Breadth-first search — the traversal that exercises every design axis.
//!
//! Variants:
//! * [`bfs`] — push-direction BSP (Listing-3 style expansion with a
//!   claim-by-CAS visit condition);
//! * [`bfs_pull`] — all iterations pull over the CSC (§III-C);
//! * [`bfs_direction_optimizing`] — Beamer-style per-iteration switch
//!   between push and pull with the classic α/β heuristic, switching the
//!   frontier representation (sparse↔dense) along with the direction —
//!   the push-vs-pull comparison of §III-C;
//! * [`bfs_queue`] — the frontier lives in a [`QueueFrontier`]
//!   (message-passing representation, §III-B) inside an otherwise
//!   identical BSP loop;
//! * [`bfs_async`] — whole-algorithm asynchronous execution with a
//!   monotone level relaxation (levels may be re-lowered as better paths
//!   arrive; the fixpoint equals BFS levels);
//! * [`bfs_sequential`] — the textbook queue baseline (oracle).

pub use essentials_core::prelude::Direction;
use essentials_core::prelude::*;
use essentials_parallel::atomics::Counter;
use essentials_parallel::run_async;
use std::sync::atomic::{AtomicU32, Ordering};

/// Level not yet assigned.
pub const UNVISITED: u32 = u32::MAX;

/// BFS output: hop levels and run metadata.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// `level[v]` = hop distance from the source, [`UNVISITED`] if
    /// unreachable.
    pub level: Vec<u32>,
    /// Loop statistics.
    pub stats: LoopStats,
    /// Edges inspected (work measure).
    pub edges_inspected: usize,
    /// Direction taken each iteration (all `Push` except for the
    /// direction-optimizing variant).
    pub directions: Vec<Direction>,
}

// `Direction` now lives in the core operator layer (the adaptive engine
// decides it); re-exported here so existing `bfs::Direction` users keep
// compiling. The glob prelude import above already brings it into scope.

fn init_levels(n: usize, source: VertexId) -> Vec<AtomicU32> {
    (0..n)
        .map(|i| AtomicU32::new(if i == source as usize { 0 } else { UNVISITED }))
        .collect()
}

fn unwrap_levels(levels: Vec<AtomicU32>) -> Vec<u32> {
    levels.into_iter().map(AtomicU32::into_inner).collect()
}

/// Push-direction BSP BFS. The expand condition claims the destination with
/// a CAS on its level, so each vertex enters the output frontier exactly
/// once and no uniquify pass is needed.
///
/// ```
/// use essentials_core::prelude::*;
/// use essentials_algos::bfs::{bfs, UNVISITED};
///
/// // 0 → 1 → 2, and 3 unreachable.
/// let g = Graph::from_coo(&Coo::<()>::from_edges(4, [(0, 1, ()), (1, 2, ())]));
/// let r = bfs(execution::par, &Context::new(2), &g, 0);
/// assert_eq!(r.level, vec![0, 1, 2, UNVISITED]);
/// ```
pub fn bfs<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    source: VertexId,
) -> BfsResult {
    match try_bfs(policy, ctx, g, source) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`bfs`]: the context's [`RunBudget`] is checked at iteration
/// boundaries (by the enactor) and chunk boundaries (inside the advance),
/// fault-plan injections fire at their exact `(iteration, chunk)`
/// coordinates, and a panic in a worker surfaces as
/// [`ExecError::WorkerPanic`] instead of aborting the process. After any
/// error the context is fully reusable — the next run on the same context
/// matches the sequential oracle bit-for-bit (`tests/resilience.rs`).
pub fn try_bfs<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    source: VertexId,
) -> Result<BfsResult, ExecError> {
    let n = g.get_num_vertices();
    let levels = init_levels(n, source);
    let edges = Counter::new();
    let mut directions = Vec::new();
    let (_, stats) = Enactor::for_ctx(ctx).try_run(SparseFrontier::single(source), |iter, f| {
        directions.push(Direction::Push);
        let next_level = iter as u32 + 1;
        let out = try_neighbors_expand(policy, ctx, g, &f, |_src, dst, _e, _w| {
            edges.add(1);
            levels[dst as usize]
                .compare_exchange(UNVISITED, next_level, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        })?;
        // The CAS claim already deduplicates; recycling the spent frontier
        // keeps the loop allocation-free after warm-up.
        ctx.recycle_frontier(f);
        Ok(out)
    })?;
    Ok(BfsResult {
        level: unwrap_levels(levels),
        stats,
        edges_inspected: edges.get(),
        directions,
    })
}

/// Pull-direction BSP BFS: every unvisited vertex scans its in-neighbors
/// for a frontier member. Requires the CSC (`with_csc`). The frontier is
/// dense throughout.
pub fn bfs_pull<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    source: VertexId,
) -> BfsResult {
    let n = g.get_num_vertices();
    let levels = init_levels(n, source);
    let edges = Counter::new();
    let mut directions = Vec::new();
    let init = DenseFrontier::new(n);
    init.insert(source);
    let (last, stats) = Enactor::for_ctx(ctx).run(init, |iter, f| {
        directions.push(Direction::Pull);
        let next_level = iter as u32 + 1;
        let (out, scanned) = expand_pull_counted(
            policy,
            ctx,
            g,
            &f,
            PullConfig { early_exit: true },
            |dst| levels[dst as usize].load(Ordering::Acquire) == UNVISITED,
            |_src, dst, _w| {
                levels[dst as usize]
                    .compare_exchange(UNVISITED, next_level, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            },
        );
        edges.add(scanned);
        // The consumed bitmap goes back to the pool; the next iteration's
        // expansion draws from it instead of allocating.
        ctx.recycle_dense_frontier(f);
        out
    });
    ctx.recycle_dense_frontier(last);
    BfsResult {
        level: unwrap_levels(levels),
        stats,
        edges_inspected: edges.get(),
        directions,
    }
}

/// Heuristic parameters of the direction-optimizing switch (Beamer et al.).
#[derive(Debug, Clone, Copy)]
pub struct DoParams {
    /// Switch push→pull when `frontier_out_edges > remaining_edges / alpha`.
    pub alpha: usize,
    /// Switch pull→push when `frontier_size < n / beta`.
    pub beta: usize,
}

impl Default for DoParams {
    fn default() -> Self {
        DoParams {
            alpha: 14,
            beta: 24,
        }
    }
}

impl DoParams {
    /// The equivalent engine policy (BFS keeps the classic α/β knobs; the
    /// γ/dwell knobs take their defaults).
    pub fn to_policy(self) -> DirectionPolicy {
        DirectionPolicy {
            alpha: self.alpha,
            beta: self.beta,
            ..DirectionPolicy::default()
        }
    }
}

/// Direction-optimizing BFS: delegates the per-iteration push/pull decision
/// (and the sparse↔dense representation switch that rides along) to the
/// core adaptive advance engine. BFS supplies only its two views of the
/// claim-by-CAS visit update; [`advance_adaptive`] owns the heuristic,
/// the unvisited-candidates mask (masked word-parallel pull), the frontier
/// recycling, and the `DirectionEvent` emission.
pub fn bfs_direction_optimizing<P, W, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    source: VertexId,
    params: DoParams,
) -> BfsResult
where
    P: ExecutionPolicy,
    W: EdgeValue,
    G: OutWeights<W> + InWeights<W> + Sync,
{
    bfs_with_policy(policy, ctx, g, source, params.to_policy())
}

/// BFS through the adaptive engine with a fully-specified
/// [`DirectionPolicy`] (all four knobs, where [`DoParams`] exposes only the
/// classic α/β pair).
///
/// Runs over any two-sided adjacency — a raw [`Graph`] built `with_csc`, an
/// in-memory [`CompressedGraph`], or a [`CompressedGraphView`] over an
/// mmapped container. The claim update is the same CAS and every
/// representation streams neighbors in the same ascending order, so levels
/// and direction traces are bit-identical across them
/// (`tests/differential.rs`).
pub fn bfs_with_policy<P, W, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    source: VertexId,
    dir_policy: DirectionPolicy,
) -> BfsResult
where
    P: ExecutionPolicy,
    W: EdgeValue,
    G: OutWeights<W> + InWeights<W> + Sync,
{
    let n = g.num_vertices();
    let levels = init_levels(n, source);
    let mut engine = AdaptiveAdvance::new(
        g,
        AdaptiveConfig {
            policy: dir_policy,
            // A visited vertex never re-candidates, and one admitting
            // in-edge settles a pull destination.
            early_exit: true,
            settle: true,
            bins: BlockedConfig::default(),
        },
    );
    let mut trace = Vec::new();

    let mut frontier = VertexFrontier::Sparse(SparseFrontier::single(source));
    while frontier.len() > 0 {
        let next_level = engine.iterations() as u32 + 1;
        frontier = advance_adaptive(
            policy,
            ctx,
            g,
            &mut engine,
            frontier,
            |_src, dst, _e, _w| {
                levels[dst as usize]
                    .compare_exchange(UNVISITED, next_level, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            },
            |dst| levels[dst as usize].load(Ordering::Acquire) == UNVISITED,
            |_src, dst, _w| {
                levels[dst as usize]
                    .compare_exchange(UNVISITED, next_level, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            },
        );
        trace.push(frontier.len());
    }
    engine.finish(ctx);

    BfsResult {
        level: unwrap_levels(levels),
        stats: LoopStats {
            iterations: engine.iterations(),
            frontier_trace: trace,
            hit_iteration_cap: false,
        },
        edges_inspected: engine.edges_inspected(),
        directions: engine.directions().to_vec(),
    }
}

/// [`bfs_direction_optimizing`] with the default policy — the "just give me
/// the adaptive traversal" entry point matching `sssp_adaptive`/`cc_adaptive`.
pub fn bfs_adaptive<P, W, G>(policy: P, ctx: &Context, g: &G, source: VertexId) -> BfsResult
where
    P: ExecutionPolicy,
    W: EdgeValue,
    G: OutWeights<W> + InWeights<W> + Sync,
{
    bfs_direction_optimizing(policy, ctx, g, source, DoParams::default())
}

/// Former name of [`bfs_with_policy`] on compressed adjacency; the frozen
/// benchmark still calls it.
pub use self::bfs_with_policy as bfs_adaptive_compressed;

/// BFS with a **dense bitmap** frontier throughout, still traversing in the
/// push direction: each iteration walks the bitmap's set bits and expands
/// into a fresh bitmap. Measures pure representation cost against the
/// sparse-vector and queue variants — insertion is
/// idempotent (no uniquify), but iteration pays an O(n/64) scan even when
/// few bits are set.
pub fn bfs_dense<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    source: VertexId,
) -> BfsResult {
    let n = g.get_num_vertices();
    let levels = init_levels(n, source);
    let edges = Counter::new();
    let init = DenseFrontier::new(n);
    init.insert(source);
    let (last, stats) = Enactor::for_ctx(ctx).run(init, |iter, f| {
        let next_level = iter as u32 + 1;
        // Walk the bitmap; expand push-style into the next bitmap.
        let active: SparseFrontier = f.iter().collect();
        // The consumed bitmap goes back to the pool before expansion so the
        // fresh output bitmap can reuse its words.
        ctx.recycle_dense_frontier(f);
        expand_push_dense(policy, ctx, g, &active, |_src, dst, _e, _w| {
            edges.add(1);
            levels[dst as usize]
                .compare_exchange(UNVISITED, next_level, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        })
    });
    ctx.recycle_dense_frontier(last);
    BfsResult {
        level: unwrap_levels(levels),
        stats,
        edges_inspected: edges.get(),
        directions: Vec::new(),
    }
}

/// BFS with the frontier represented as a message queue (§III-B): each
/// expansion *sends* newly visited vertices into the queue; each iteration
/// *receives* by draining it. Same BSP structure, different communication
/// substrate.
pub fn bfs_queue<W: EdgeValue>(ctx: &Context, g: &Graph<W>, source: VertexId) -> BfsResult {
    let n = g.get_num_vertices();
    let levels = init_levels(n, source);
    let edges = Counter::new();
    let queue = QueueFrontier::new(ctx.num_threads());
    queue.push(0, source);
    let mut iterations = 0usize;
    let mut trace = Vec::new();
    while !queue.is_empty() {
        let current = SparseFrontier::from_vec(queue.drain());
        let next_level = iterations as u32 + 1;
        // Expand; sends go straight into the queue.
        for_each_edge_balanced(ctx, g, current.as_slice(), |tid, _src, dst, _e| {
            edges.add(1);
            if levels[dst as usize]
                .compare_exchange(UNVISITED, next_level, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                queue.push(tid, dst);
            }
        });
        iterations += 1;
        trace.push(queue.len());
    }
    BfsResult {
        level: unwrap_levels(levels),
        stats: LoopStats {
            iterations,
            frontier_trace: trace,
            hit_iteration_cap: false,
        },
        edges_inspected: edges.get(),
        directions: vec![Direction::Push; iterations],
    }
}

/// Fully asynchronous BFS: monotone level relaxation
/// (`level[dst] = min(level[dst], level[src]+1)`) through the work-queue
/// engine. A vertex may be processed multiple times as better levels
/// arrive; the fixpoint equals the BFS levels.
pub fn bfs_async<W: EdgeValue>(ctx: &Context, g: &Graph<W>, source: VertexId) -> BfsResult {
    let n = g.get_num_vertices();
    let levels = init_levels(n, source);
    let edges = Counter::new();
    let stats = run_async(ctx.pool(), vec![source], |v: VertexId, pusher| {
        let lv = levels[v as usize].load(Ordering::Acquire);
        let cand = lv.saturating_add(1);
        for e in g.get_edges(v) {
            let dst = g.get_dest_vertex(e);
            edges.add(1);
            if levels[dst as usize].fetch_min(cand, Ordering::AcqRel) > cand {
                pusher.push(dst);
            }
        }
    });
    BfsResult {
        level: unwrap_levels(levels),
        stats: LoopStats {
            iterations: 1,
            frontier_trace: vec![stats.processed],
            hit_iteration_cap: false,
        },
        edges_inspected: edges.get(),
        directions: vec![Direction::Push],
    }
}

/// Textbook sequential BFS (the oracle).
pub fn bfs_sequential<W: EdgeValue>(g: &Graph<W>, source: VertexId) -> BfsResult {
    let n = g.get_num_vertices();
    let mut level = vec![UNVISITED; n];
    level[source as usize] = 0;
    let mut edges = 0usize;
    let mut q = std::collections::VecDeque::new();
    q.push_back(source);
    let mut max_level = 0;
    while let Some(v) = q.pop_front() {
        let lv = level[v as usize];
        for e in g.get_edges(v) {
            edges += 1;
            let dst = g.get_dest_vertex(e);
            if level[dst as usize] == UNVISITED {
                level[dst as usize] = lv + 1;
                max_level = max_level.max(lv + 1);
                q.push_back(dst);
            }
        }
    }
    BfsResult {
        level,
        stats: LoopStats {
            iterations: max_level as usize + 1,
            frontier_trace: Vec::new(),
            hit_iteration_cap: false,
        },
        edges_inspected: edges,
        directions: Vec::new(),
    }
}

/// Verifies BFS levels against the definition: `level[source] == 0`; every
/// edge spans at most one level downward-to-upward
/// (`level[dst] ≤ level[src] + 1`); every visited vertex at level k > 0 has
/// an in... (witnessed by a level-(k-1) in-edge, checked via out-edges scan);
/// unvisited vertices have no visited in-neighbor.
pub fn verify_bfs<W: EdgeValue>(g: &Graph<W>, source: VertexId, level: &[u32]) -> bool {
    if level.len() != g.get_num_vertices() || level[source as usize] != 0 {
        return false;
    }
    let mut witnessed = vec![false; level.len()];
    witnessed[source as usize] = true;
    for v in g.vertices() {
        let lv = level[v as usize];
        for e in g.get_edges(v) {
            let dst = g.get_dest_vertex(e) as usize;
            if lv != UNVISITED {
                // Reachable vertices must reach their successors.
                if level[dst] == UNVISITED || level[dst] > lv + 1 {
                    return false;
                }
                if level[dst] == lv + 1 {
                    witnessed[dst] = true;
                }
            }
        }
    }
    level
        .iter()
        .zip(&witnessed)
        .all(|(&l, &w)| l == UNVISITED || l == 0 || w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_gen as gen;

    fn graphs() -> Vec<Graph<()>> {
        vec![
            Graph::from_coo(&gen::rmat(9, 8, gen::RmatParams::default(), 3)).with_csc(),
            Graph::from_coo(&gen::grid2d(20, 20)).with_csc(),
            Graph::from_coo(&gen::binary_tree(127)).with_csc(),
            Graph::from_coo(&gen::star(64)).with_csc(),
        ]
    }

    #[test]
    fn all_variants_agree_with_sequential() {
        let ctx = Context::new(4);
        for (gi, g) in graphs().iter().enumerate() {
            let oracle = bfs_sequential(g, 0);
            assert!(verify_bfs(g, 0, &oracle.level), "oracle invalid on g{gi}");
            let variants: Vec<(&str, Vec<u32>)> = vec![
                ("push_seq", bfs(execution::seq, &ctx, g, 0).level),
                ("push_par", bfs(execution::par, &ctx, g, 0).level),
                ("push_nosync", bfs(execution::par_nosync, &ctx, g, 0).level),
                ("pull", bfs_pull(execution::par, &ctx, g, 0).level),
                (
                    "do",
                    bfs_direction_optimizing(execution::par, &ctx, g, 0, DoParams::default()).level,
                ),
                ("dense", bfs_dense(execution::par, &ctx, g, 0).level),
                ("queue", bfs_queue(&ctx, g, 0).level),
                ("async", bfs_async(&ctx, g, 0).level),
            ];
            for (name, level) in variants {
                assert_eq!(level, oracle.level, "{name} diverged on graph {gi}");
            }
        }
    }

    #[test]
    fn direction_optimizing_actually_switches_on_dense_graphs() {
        let ctx = Context::new(2);
        // A star from the hub: frontier covers the whole graph at iter 1.
        let g = Graph::from_coo(&gen::star(1000)).with_csc();
        let r = bfs_direction_optimizing(
            execution::par,
            &ctx,
            &g,
            0,
            DoParams {
                alpha: 14,
                beta: 24,
            },
        );
        assert!(
            r.directions.contains(&Direction::Pull),
            "expected at least one pull iteration, got {:?}",
            r.directions
        );
    }

    #[test]
    fn grid_stays_push_throughout() {
        let ctx = Context::new(2);
        let g = Graph::from_coo(&gen::grid2d(30, 30)).with_csc();
        let r = bfs_direction_optimizing(execution::par, &ctx, &g, 0, DoParams::default());
        assert!(
            r.directions.iter().all(|&d| d == Direction::Push),
            "grids never have dense frontiers: {:?}",
            r.directions
        );
    }

    #[test]
    fn levels_on_path_equal_position() {
        let ctx = Context::sequential();
        let g = Graph::from_coo(&gen::path(30)).with_csc();
        let r = bfs(execution::par, &ctx, &g, 0);
        for (v, &l) in r.level.iter().enumerate() {
            assert_eq!(l, v as u32);
        }
        assert_eq!(r.stats.iterations, 30);
    }

    #[test]
    fn unreachable_marked_unvisited() {
        let g = Graph::from_coo(&Coo::<()>::from_edges(3, [(0, 1, ())])).with_csc();
        let ctx = Context::sequential();
        for level in [
            bfs(execution::par, &ctx, &g, 0).level,
            bfs_pull(execution::par, &ctx, &g, 0).level,
            bfs_async(&ctx, &g, 0).level,
        ] {
            assert_eq!(level, vec![0, 1, UNVISITED]);
            assert!(verify_bfs(&g, 0, &level));
        }
    }

    #[test]
    fn verifier_rejects_bad_levels() {
        let g = Graph::from_coo(&Coo::<()>::from_edges(3, [(0, 1, ()), (1, 2, ())]));
        assert!(!verify_bfs(&g, 0, &[0, 2, 3])); // skips a level
        assert!(!verify_bfs(&g, 0, &[0, 1, UNVISITED])); // reachable but unvisited
        assert!(!verify_bfs(&g, 0, &[0, 1, 1])); // unwitnessed level
        assert!(verify_bfs(&g, 0, &[0, 1, 2]));
    }

    #[test]
    fn source_out_of_nowhere_single_vertex() {
        let g = Graph::from_coo(&Coo::<()>::new(1)).with_csc();
        let ctx = Context::sequential();
        let r = bfs(execution::par, &ctx, &g, 0);
        assert_eq!(r.level, vec![0]);
    }
}
