//! Multi-source batched BFS — one graph pass amortized over up to 64
//! sources, when the sources' frontiers overlap.
//!
//! The serving workload (many concurrent reachability/level probes against
//! one immutable graph) rarely needs *one* BFS; it needs *many*. Running k
//! independent traversals costs k full passes over the same adjacency
//! structure. This module instead assigns each source a bit in a `u64`
//! **mask word per vertex** and advances all sources in lock-step BSP
//! iterations: iteration d claims, for every source s, exactly the vertices
//! at distance d from s. One edge inspection relaxes up to 64 traversals at
//! once — the word-parallel trick of the dense-frontier kernels
//! (DESIGN.md §7) applied across *queries* instead of across *vertices*.
//!
//! That pays only when lanes share frontier vertices (MS-BFS, Then et
//! al., PVLDB 2014), so each lock-step level measures the lanes carried
//! per active vertex, Σ popcount(`frontier[v]`) / |active|. At 1.5 the
//! batch commits to lock-step; still below it after four levels (lanes on
//! disjoint wavefronts, as on a grid), every lane restarts from its source
//! as a single traversal through [`crate::bfs::try_bfs`]'s body, claiming
//! straight into its slice of the level table. A one-lane batch starts
//! there.
//!
//! Determinism: bit s of vertex v is claimed by exactly one
//! `fetch_or` winner, and the iteration at which the claim can happen is
//! fixed by the BSP structure (it *is* the BFS distance), so the level
//! table is bit-identical to k independent [`crate::bfs::bfs`] runs at any
//! thread count (`tests/multi_source.rs` proves it property-style); the
//! split lanes are such runs.
//!
//! All lock-step working memory — visited/frontier/next mask words, the
//! level table, and the two active-vertex bitmaps — checks out of the
//! context's scratch pools, so a warm serving engine re-runs lock-step
//! batches with zero steady-state allocations (`tests/zero_alloc.rs`).

use essentials_core::obs::AbortEvent;
use essentials_core::prelude::*;
use essentials_parallel::atomics::{as_atomic_u32, as_atomic_u64, Counter};
use essentials_parallel::try_sequential_for_with;
use std::sync::atomic::Ordering;

use crate::bfs::try_bfs_into;
pub use crate::bfs::UNVISITED;

/// Maximum sources per batch: one bit per source in the per-vertex mask
/// word.
pub const MAX_BATCH: usize = 64;

/// Lock-step levels a batch runs before it splits, unless its lanes share
/// frontier vertices by then (R-MAT lanes do from level 2).
const PROBE_LEVELS: usize = 4;

/// Words processed per scheduling chunk when sweeping the active bitmap.
const WORD_GRAIN: usize = 4;

/// Output of a batched traversal: a lane-major level table plus run
/// metadata. Deliberately `Vec`-light (no per-iteration traces) so the
/// serving path stays allocation-free after warm-up.
#[derive(Debug, Clone)]
pub struct MsBfsResult {
    /// `levels[s * n + v]` = hop distance of vertex `v` from source `s`
    /// (n vertices), [`UNVISITED`] if unreachable: lane-major, so lanes
    /// never write one cache line. Drawn from the context's pooled `u32`
    /// buffers; return it with [`MsBfsResult::recycle`] to keep the
    /// serving loop allocation-free.
    pub levels: Vec<u32>,
    /// Number of sources in the batch (the number of lanes in `levels`).
    pub batch: usize,
    /// BSP iterations executed: the lock-step levels (the maximum BFS depth
    /// reached plus one when the batch stays lock-step), plus every split
    /// lane's iterations.
    pub iterations: usize,
    /// Edges inspected across the whole batch: Σ over lock-step iterations
    /// of the out-degrees of the vertices with some lane in that
    /// iteration's frontier — each inspection serves every lane there, the
    /// amortization this kernel exists for — plus every split lane's
    /// [`crate::bfs::BfsResult::edges_inspected`]. Independent of thread
    /// count.
    pub edges_inspected: usize,
}

impl MsBfsResult {
    /// Level of vertex `v` from source index `s`.
    #[inline]
    pub fn level(&self, v: VertexId, s: usize) -> u32 {
        self.lane(s)[v as usize]
    }

    /// The full level vector of source index `s` — the exact shape
    /// [`crate::bfs::BfsResult::level`] has, for differential testing.
    pub fn source_levels(&self, s: usize) -> Vec<u32> {
        self.lane(s).to_vec()
    }

    fn lane(&self, s: usize) -> &[u32] {
        assert!(
            s < self.batch,
            "source index {s} out of batch {}",
            self.batch
        );
        let n = self.levels.len() / self.batch;
        &self.levels[s * n..(s + 1) * n]
    }

    /// Returns the level table's storage to the context's numeric pool, so
    /// the next batched request on this scratch reuses it instead of
    /// allocating.
    pub fn recycle(self, ctx: &Context) {
        ctx.recycle_u32_buffer(self.levels);
    }
}

/// Infallible [`try_bfs_multi_source`] (panics on execution errors).
///
/// ```
/// use essentials_core::prelude::*;
/// use essentials_algos::multi_source::{bfs_multi_source, UNVISITED};
///
/// // 0 → 1 → 2, and 3 isolated.
/// let g = Graph::from_coo(&Coo::<()>::from_edges(4, [(0, 1, ()), (1, 2, ())]));
/// let r = bfs_multi_source(execution::par, &Context::new(2), &g, &[0, 1]);
/// assert_eq!(r.source_levels(0), vec![0, 1, 2, UNVISITED]);
/// assert_eq!(r.source_levels(1), vec![UNVISITED, 0, 1, UNVISITED]);
/// ```
pub fn bfs_multi_source<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    sources: &[VertexId],
) -> MsBfsResult {
    match try_bfs_multi_source(policy, ctx, g, sources) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Batched BFS from up to [`MAX_BATCH`] sources: lock-step while the lanes
/// share frontier vertices, otherwise one traversal per lane (module
/// docs). Split lanes run the default plan.
///
/// Fallible like the other `try_*` algorithms: the context's [`RunBudget`]
/// is checked at iteration boundaries and (via chunk hooks) inside the
/// word sweep, fault-plan injections fire at their `(iteration, chunk)`
/// coordinates — a split lane numbers its iterations from 0, as a single
/// traversal does — and worker panics surface as
/// [`ExecError::WorkerPanic`]. A malformed request — more than
/// [`MAX_BATCH`] sources, or a source outside the graph — is rejected up
/// front as [`ExecError::InvalidInput`], before any pooled buffer is
/// taken. On any error every pooled buffer is returned to the scratch
/// first, so the context — and the serving engine above it — stays fully
/// reusable.
pub fn try_bfs_multi_source<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    sources: &[VertexId],
) -> Result<MsBfsResult, ExecError> {
    let n = g.get_num_vertices();
    let k = sources.len();
    // Validate before touching the scratch pools: a bad request is a
    // caller error, not an execution failure, and must leave every pooled
    // buffer parked so the serving engine above stays warm and reusable.
    if k > MAX_BATCH {
        return Err(ExecError::InvalidInput {
            detail: format!("batch of {k} sources exceeds the {MAX_BATCH}-lane mask width"),
        });
    }
    if let Some(&bad) = sources.iter().find(|&&s| s as usize >= n) {
        return Err(ExecError::InvalidInput {
            detail: format!("source {bad} out of range (graph has {n} vertices)"),
        });
    }
    let mut levels = ctx.take_u32_buffer();
    levels.resize(n * k, UNVISITED);
    let outcome = match k {
        0 => Ok(Sweep::default()),
        // One lane shares with nobody: it starts as a single traversal.
        1 => try_split(policy, ctx, g, sources, &mut levels, Sweep::default()),
        _ => match try_lock_step(policy, ctx, g, sources, &mut levels) {
            Ok(run) if !run.finished => try_split(policy, ctx, g, sources, &mut levels, run),
            probe => probe,
        },
    };
    match outcome {
        Ok(run) => Ok(MsBfsResult {
            levels,
            batch: k,
            iterations: run.iterations,
            edges_inspected: run.edges_inspected,
        }),
        Err(e) => {
            ctx.recycle_u32_buffer(levels);
            Err(e)
        }
    }
}

/// Restarts every lane from its source as a single traversal claiming into
/// its slice of `levels`, adding the lanes' work to `run`, on the default
/// plan.
fn try_split<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    sources: &[VertexId],
    levels: &mut [u32],
    mut run: Sweep,
) -> Result<Sweep, ExecError> {
    let plan = DirectionPolicy::default();
    levels.fill(UNVISITED);
    for (lane, &src) in levels.chunks_mut(g.get_num_vertices()).zip(sources) {
        lane[src as usize] = 0;
        let (stats, edges, _) = try_bfs_into(policy, ctx, g, src, plan, as_atomic_u32(lane))?;
        run.iterations += stats.iterations;
        run.edges_inspected += edges;
    }
    Ok(run)
}

/// Progress of a batch: work so far, and whether the lock-step sweep
/// reached the end of every lane.
#[derive(Default)]
struct Sweep {
    iterations: usize,
    edges_inspected: usize,
    finished: bool,
}

/// The lock-step mask-word sweep over lane-major `levels`. Stops
/// unfinished when the lanes share no frontier vertices after
/// [`PROBE_LEVELS`] levels; emits the abort event of its own errors.
fn try_lock_step<P: ExecutionPolicy, W: EdgeValue>(
    _policy: P,
    ctx: &Context,
    g: &Graph<W>,
    sources: &[VertexId],
    levels: &mut [u32],
) -> Result<Sweep, ExecError> {
    let n = g.get_num_vertices();
    let mut visited = ctx.take_u64_buffer();
    visited.resize(n, 0);
    let mut frontier = ctx.take_u64_buffer();
    frontier.resize(n, 0);
    let mut next = ctx.take_u64_buffer();
    next.resize(n, 0);
    let mut active = ctx.take_dense_frontier(n);
    let mut next_active = ctx.take_dense_frontier(n);

    for (s, &src) in sources.iter().enumerate() {
        let v = src as usize;
        let bit = 1u64 << s;
        visited[v] |= bit;
        frontier[v] |= bit;
        levels[s * n + v] = 0;
        active.insert(src);
    }

    let edges = Counter::new();
    let words = n.div_ceil(64);
    let mut iterations = 0usize;
    let mut shared = false;
    let outcome = loop {
        if active.is_empty() {
            break Ok(true);
        }
        if !shared && iterations == PROBE_LEVELS {
            break Ok(false);
        }
        if let Some(plan) = ctx.fault_plan() {
            plan.set_iteration(iterations);
        }
        if let Err(reason) = ctx.budget().check_iteration(iterations) {
            break Err(ExecError::Budget {
                reason,
                progress: Progress {
                    iterations,
                    work_trace: Vec::new(),
                },
            });
        }
        let depth = iterations as u32 + 1;
        let step = {
            let frontier_ref: &[u64] = &frontier;
            let visited_at = as_atomic_u64(&mut visited);
            let next_at = as_atomic_u64(&mut next);
            let levels_at = as_atomic_u32(levels);
            let active_ref = &active;
            let next_active_ref = &next_active;
            let edges_ref = &edges;
            let body = move |w: usize| {
                // The word's inspected edges, added to the shared total once.
                let mut inspected = 0usize;
                active_ref.bits().for_each_set_in_words(w, w + 1, &mut |v| {
                    let fmask = frontier_ref[v];
                    inspected += g.out_degree(v as VertexId);
                    for e in g.get_edges(v as VertexId) {
                        let dst = g.get_dest_vertex(e) as usize;
                        // Visited bits are only ever set, so a stale Relaxed
                        // load can only understate them: when it already
                        // shows every lane of `fmask`, the claim would win
                        // nothing and is skipped.
                        if fmask & !visited_at[dst].load(Ordering::Relaxed) == 0 {
                            continue;
                        }
                        // One RMW claims all still-unvisited source bits at
                        // once; the winner of each bit is unique, so every
                        // level cell is written exactly once — by the
                        // iteration that *is* its BFS distance.
                        let old = visited_at[dst].fetch_or(fmask, Ordering::AcqRel);
                        let new = fmask & !old;
                        if new != 0 {
                            let was = next_at[dst].fetch_or(new, Ordering::Relaxed);
                            let mut bits = new;
                            while bits != 0 {
                                let s = bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                levels_at[s * n + dst].store(depth, Ordering::Relaxed);
                            }
                            // Only the claim that makes `dst`'s next word
                            // non-zero marks it active: the bitmap's few
                            // words are shared by every worker, so one RMW
                            // per vertex and level, not one per claim. The
                            // count is rederived once per level below.
                            if was == 0 {
                                next_active_ref.bits().set(dst);
                            }
                        }
                    }
                });
                if inspected > 0 {
                    edges_ref.add(inspected);
                }
            };
            let hooks = ctx.chunk_hooks();
            let schedule = Schedule::Dynamic(WORD_GRAIN);
            if P::IS_PARALLEL && ctx.num_threads() > 1 {
                // Each word counts as one unit of work, not as the 64
                // vertex slots behind it, so the sweep reaches the pool
                // only from 2^17 vertices: its time goes to RMWs on
                // destination words every worker shares, and a second
                // worker paid little or nothing below that (EXPERIMENTS.md,
                // "The lock-step sweep stays on its caller below 2^17
                // vertices").
                ctx.pool().try_parallel_for(0..words, schedule, hooks, body)
            } else {
                try_sequential_for_with(0..words, schedule, hooks, |_, w| body(w))
            }
        };
        if let Err(e) = step {
            break Err(e);
        }
        // Consume the spent frontier words (only active vertices hold
        // non-zero words, so this is O(|frontier|) plus the bitmap scan),
        // counting the lanes they carried; then rotate the double buffer
        // and the active bitmaps.
        let mut lanes = 0usize;
        active.bits().for_each_set_in_words(0, words, &mut |v| {
            lanes += frontier[v].count_ones() as usize;
            frontier[v] = 0;
        });
        shared |= 2 * lanes >= 3 * active.len();
        std::mem::swap(&mut frontier, &mut next);
        active.clear();
        std::mem::swap(&mut active, &mut next_active);
        active.recount();
        iterations += 1;
    };

    ctx.recycle_u64_buffer(visited);
    ctx.recycle_u64_buffer(frontier);
    ctx.recycle_u64_buffer(next);
    ctx.recycle_dense_frontier(active);
    ctx.recycle_dense_frontier(next_active);
    if let (Err(e), Some(obs)) = (&outcome, ctx.obs()) {
        obs.on_abort(&AbortEvent {
            kind: e.kind(),
            iteration: iterations,
        });
    }
    outcome.map(|finished| Sweep {
        iterations,
        edges_inspected: edges.get(),
        finished,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{bfs, bfs_sequential};
    use essentials_gen as gen;

    #[test]
    fn batch_matches_independent_runs_on_a_tree() {
        let g = Graph::from_coo(&gen::binary_tree(63));
        let ctx = Context::new(2);
        let sources = [0u32, 1, 5, 62];
        let r = bfs_multi_source(execution::par, &ctx, &g, &sources);
        assert_eq!(r.batch, sources.len());
        for (s, &src) in sources.iter().enumerate() {
            assert_eq!(
                r.source_levels(s),
                bfs_sequential(&g, src).level,
                "source {src} diverged"
            );
        }
    }

    #[test]
    fn duplicate_sources_are_independent_lanes() {
        let g = Graph::from_coo(&gen::path(10));
        let ctx = Context::sequential();
        let r = bfs_multi_source(execution::seq, &ctx, &g, &[3, 3]);
        assert_eq!(r.source_levels(0), r.source_levels(1));
        assert_eq!(r.level(3, 0), 0);
        assert_eq!(r.level(9, 1), 6);
    }

    #[test]
    fn empty_batch_and_empty_graph() {
        let ctx = Context::sequential();
        let g = Graph::from_coo(&gen::path(4));
        let r = bfs_multi_source(execution::seq, &ctx, &g, &[]);
        assert_eq!(r.batch, 0);
        assert!(r.levels.is_empty());
        let empty = Graph::from_coo(&Coo::<()>::new(0));
        let r = bfs_multi_source(execution::seq, &ctx, &empty, &[]);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn full_width_batch_agrees_with_parallel_bfs() {
        let g = Graph::from_coo(&gen::rmat(8, 8, gen::RmatParams::default(), 7));
        let ctx = Context::new(4);
        let sources: Vec<u32> = (0..64).map(|i| (i * 3) % 256).collect();
        let r = bfs_multi_source(execution::par, &ctx, &g, &sources);
        let push = DirectionPolicy::fixed(Direction::Push);
        for (s, &src) in sources.iter().enumerate() {
            assert_eq!(
                r.source_levels(s),
                bfs(execution::par, &ctx, &g, src, push).level,
                "lane {s} (source {src}) diverged"
            );
        }
        assert!(r.edges_inspected > 0);
    }

    #[test]
    fn invalid_inputs_are_typed_errors_and_leave_scratch_parked() {
        let g = Graph::from_coo(&gen::path(4));
        let ctx = Context::sequential();
        let err = try_bfs_multi_source(execution::seq, &ctx, &g, &[9])
            .expect_err("out-of-range source must be rejected");
        assert_eq!(err.kind(), "invalid-input");
        let too_many = vec![0u32; MAX_BATCH + 1];
        let err = try_bfs_multi_source(execution::seq, &ctx, &g, &too_many)
            .expect_err("65-source batch must be rejected");
        assert_eq!(err.kind(), "invalid-input");
        // Rejection happened before any buffer was taken, so the context
        // still serves exact answers.
        let r = bfs_multi_source(execution::seq, &ctx, &g, &[0]);
        assert_eq!(r.source_levels(0), bfs_sequential(&g, 0).level);
    }

    #[test]
    fn budget_error_leaves_context_reusable() {
        let g = Graph::from_coo(&gen::grid2d(40, 40));
        let base = Context::new(2);
        // The clone shares the pool and the scratch slot with `base`.
        let capped = base
            .clone()
            .with_budget(RunBudget::unlimited().with_max_iterations(2));
        let err = try_bfs_multi_source(execution::par, &capped, &g, &[0, 1599])
            .expect_err("iteration cap must fire on a 78-level grid");
        assert_eq!(err.kind(), "iteration-cap");
        // Same pool, same scratch, fresh budget: bit-identical to oracle.
        let r = bfs_multi_source(execution::par, &base, &g, &[0]);
        assert_eq!(r.source_levels(0), bfs_sequential(&g, 0).level);
    }
}
