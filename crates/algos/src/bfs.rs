//! Breadth-first search — the traversal that exercises every design axis.
//!
//! Variants:
//! * [`bfs`] / [`try_bfs`] — the BSP traversal through the direction
//!   engine ([`try_advance_adaptive`]) with a claim-by-CAS visit condition.
//!   The plan ([`DirectionPolicy`]) picks push vs. pull and sparse vs.
//!   bitmap frontiers: `DirectionPolicy::fixed(Direction::Push)` is the
//!   Listing-3-style push traversal (CSR only), `fixed(Direction::Pull)`
//!   pulls over the CSC every iteration, `fixed(Direction::DensePush)`
//!   pushes into bitmap frontiers, and the default plan is Beamer's α/β
//!   direction-optimizing switch (§III-C);
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
    /// Edges inspected (work measure): out-edges of push iterations plus
    /// in-edges scanned by pull iterations.
    pub edges_inspected: usize,
    /// Direction taken each iteration.
    pub directions: Vec<Direction>,
}

fn init_levels(n: usize, source: VertexId) -> Vec<AtomicU32> {
    (0..n)
        .map(|i| AtomicU32::new(if i == source as usize { 0 } else { UNVISITED }))
        .collect()
}

fn unwrap_levels(levels: Vec<AtomicU32>) -> Vec<u32> {
    levels.into_iter().map(AtomicU32::into_inner).collect()
}

/// [`try_bfs`], panicking on an error.
///
/// ```
/// use essentials_core::prelude::*;
/// use essentials_algos::bfs::{bfs, UNVISITED};
///
/// // 0 → 1 → 2, and 3 unreachable.
/// let g = Graph::from_coo(&Coo::<()>::from_edges(4, [(0, 1, ()), (1, 2, ())]));
/// let push = DirectionPolicy::fixed(Direction::Push);
/// let r = bfs(execution::par, &Context::new(2), &g, 0, push);
/// assert_eq!(r.level, vec![0, 1, 2, UNVISITED]);
/// ```
pub fn bfs<P, W, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    source: VertexId,
    plan: DirectionPolicy,
) -> BfsResult
where
    P: ExecutionPolicy,
    W: EdgeValue,
    G: OutWeights<W> + InWeights<W> + Sync,
{
    try_bfs(policy, ctx, g, source, plan).unwrap_or_else(|e| panic!("{e}"))
}

/// BSP BFS through the direction engine ([`try_advance_adaptive`]): each
/// iteration `plan` picks the direction and frontier representation, and
/// one visit condition — claim the destination's level by CAS, so each
/// vertex is admitted once — serves push and pull alike. Pull plans need
/// the in-adjacency (a [`Graph`] built `with_csc`, a [`CompressedGraph`],
/// an mmapped view); the push plan runs on a CSR-only graph. Levels,
/// frontier trace and direction trace are bit-identical across
/// representations and thread counts (`tests/differential.rs`,
/// `tests/determinism.rs`).
///
/// The context's [`RunBudget`] is checked at iteration boundaries (by the
/// enactor) and chunk boundaries (inside every kernel), fault-plan
/// injections fire at their exact `(iteration, chunk)` coordinates, and a
/// panic in a worker surfaces as [`ExecError::WorkerPanic`] instead of
/// aborting the process. After any error the context is fully reusable —
/// the next run on the same context matches the sequential oracle
/// bit-for-bit (`tests/resilience.rs`).
pub fn try_bfs<P, W, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    source: VertexId,
    plan: DirectionPolicy,
) -> Result<BfsResult, ExecError>
where
    P: ExecutionPolicy,
    W: EdgeValue,
    G: OutWeights<W> + InWeights<W> + Sync,
{
    let levels = init_levels(g.num_vertices(), source);
    let mut engine = AdaptiveAdvance::new(
        g,
        AdaptiveConfig {
            policy: plan,
            // A visited vertex never re-candidates, and one admitting
            // in-edge settles a pull destination.
            early_exit: true,
            settle: true,
        },
    );
    let init = VertexFrontier::Sparse(SparseFrontier::single(source));
    let run = Enactor::for_ctx(ctx).try_run(init, |iter, f| {
        let next_level = iter as u32 + 1;
        try_advance_adaptive(
            policy,
            ctx,
            g,
            &mut engine,
            f,
            |dst| levels[dst as usize].load(Ordering::Acquire) == UNVISITED,
            |_src, dst, _w| {
                levels[dst as usize]
                    .compare_exchange(UNVISITED, next_level, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            },
        )
    });
    let edges_inspected = engine.edges_inspected();
    let (stats, directions) = engine.finish(ctx, run)?;
    Ok(BfsResult {
        level: unwrap_levels(levels),
        stats,
        edges_inspected,
        directions,
    })
}

/// [`bfs`] with the default (direction-optimizing) plan. Kept as a name
/// because the frozen benchmark calls it with this signature.
pub fn bfs_adaptive<P, W, G>(policy: P, ctx: &Context, g: &G, source: VertexId) -> BfsResult
where
    P: ExecutionPolicy,
    W: EdgeValue,
    G: OutWeights<W> + InWeights<W> + Sync,
{
    bfs(policy, ctx, g, source, DirectionPolicy::default())
}

/// Former name of [`bfs`] on compressed adjacency; the frozen benchmark
/// still calls it.
pub use self::bfs as bfs_adaptive_compressed;

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

/// Verifies BFS levels against the definition: `level[source] == 0`; no
/// edge skips a level (`level[dst] ≤ level[src] + 1`, so a visited vertex
/// never points at an unvisited one); and every visited vertex at level
/// k > 0 is witnessed by an in-edge from level k − 1 (found by scanning
/// out-edges, so no CSC is needed).
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

    /// Every plan a BFS can run: the fixed directions, the
    /// direction-optimizing default, and an eager blocked-pull upgrade.
    fn plans() -> Vec<(&'static str, DirectionPolicy)> {
        let eager_blocked = DirectionPolicy {
            blocked: Some(BlockedPullPolicy {
                alpha: 1000,
                beta: 1000,
            }),
            ..DirectionPolicy::default()
        };
        vec![
            ("push", DirectionPolicy::fixed(Direction::Push)),
            ("dense", DirectionPolicy::fixed(Direction::DensePush)),
            ("pull", DirectionPolicy::fixed(Direction::Pull)),
            ("blocked", DirectionPolicy::fixed(Direction::BlockedPull)),
            ("default", DirectionPolicy::default()),
            ("eager-blocked", eager_blocked),
        ]
    }

    #[test]
    fn every_plan_and_policy_agrees_with_sequential() {
        let ctx = Context::new(4);
        for (gi, g) in graphs().iter().enumerate() {
            let oracle = bfs_sequential(g, 0);
            assert!(verify_bfs(g, 0, &oracle.level), "oracle invalid on g{gi}");
            for (name, plan) in plans() {
                for r in [
                    bfs(execution::seq, &ctx, g, 0, plan),
                    bfs(execution::par, &ctx, g, 0, plan),
                    bfs(execution::par_nosync, &ctx, g, 0, plan),
                ] {
                    assert_eq!(r.level, oracle.level, "{name} diverged on graph {gi}");
                    if let Some(d) = plan.fixed {
                        assert!(r.directions.iter().all(|&x| x == d), "{name}: {r:?}");
                    }
                }
            }
            for (name, level) in [
                ("queue", bfs_queue(&ctx, g, 0).level),
                ("async", bfs_async(&ctx, g, 0).level),
            ] {
                assert_eq!(level, oracle.level, "{name} diverged on graph {gi}");
            }
        }
    }

    #[test]
    fn direction_optimizing_actually_switches_on_dense_graphs() {
        let ctx = Context::new(2);
        // A star from the hub: frontier covers the whole graph at iter 1.
        let g = Graph::from_coo(&gen::star(1000)).with_csc();
        let r = bfs(execution::par, &ctx, &g, 0, DirectionPolicy::default());
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
        let r = bfs(execution::par, &ctx, &g, 0, DirectionPolicy::default());
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
        for (name, plan) in plans() {
            let r = bfs(execution::par, &ctx, &g, 0, plan);
            for (v, &l) in r.level.iter().enumerate() {
                assert_eq!(l, v as u32, "{name}");
            }
            assert_eq!(r.stats.iterations, 30, "{name}");
        }
    }

    #[test]
    fn unreachable_marked_unvisited() {
        let g = Graph::from_coo(&Coo::<()>::from_edges(3, [(0, 1, ())])).with_csc();
        let ctx = Context::sequential();
        let levels = plans()
            .into_iter()
            .map(|(_, plan)| bfs(execution::par, &ctx, &g, 0, plan).level);
        for level in levels.chain([bfs_async(&ctx, &g, 0).level]) {
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
        let r = bfs(execution::par, &ctx, &g, 0, DirectionPolicy::default());
        assert_eq!(r.level, vec![0]);
    }
}
