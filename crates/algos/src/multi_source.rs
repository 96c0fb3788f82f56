//! Multi-source batched BFS — one graph pass amortized over up to 64
//! sources.
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
//! Determinism: bit s of vertex v is claimed by exactly one
//! `fetch_or` winner, and the iteration at which the claim can happen is
//! fixed by the BSP structure (it *is* the BFS distance), so the level
//! table is bit-identical to k independent [`crate::bfs::bfs`] runs at any
//! thread count (`tests/multi_source.rs` proves it property-style).
//!
//! All working memory — visited/frontier/next mask words, the level table,
//! and the two active-vertex bitmaps — checks out of the context's scratch
//! pools, so a warm serving engine re-runs batches with zero steady-state
//! allocations (`tests/zero_alloc.rs`).

use essentials_core::obs::AbortEvent;
use essentials_core::prelude::*;
use essentials_parallel::atomics::{as_atomic_u32, as_atomic_u64, Counter};
use essentials_parallel::exec::panic_payload_string;
use essentials_parallel::{ChunkAction, ChunkHooks};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

pub use crate::bfs::UNVISITED;

/// Maximum sources per batch: one bit per source in the per-vertex mask
/// word.
pub const MAX_BATCH: usize = 64;

/// Words processed per scheduling chunk when sweeping the active bitmap.
const WORD_GRAIN: usize = 4;

/// Output of a batched traversal: a row-major level table plus run
/// metadata. Deliberately `Vec`-light (no per-iteration traces) so the
/// serving path stays allocation-free after warm-up.
#[derive(Debug, Clone)]
pub struct MsBfsResult {
    /// `levels[v * batch + s]` = hop distance of vertex `v` from source
    /// `s`, [`UNVISITED`] if unreachable. Drawn from the context's pooled
    /// `u32` buffers; return it with [`MsBfsResult::recycle`] to keep the
    /// serving loop allocation-free.
    pub levels: Vec<u32>,
    /// Number of sources in the batch (the row stride of `levels`).
    pub batch: usize,
    /// BSP iterations executed (the maximum BFS depth reached plus one
    /// frontier-emptying check).
    pub iterations: usize,
    /// Edges inspected across the whole batch: Σ over iterations of the
    /// out-degrees of the vertices with some lane in that iteration's
    /// frontier. Each inspection serves up to `batch` sources — the
    /// amortization this kernel exists for. Independent of thread count.
    pub edges_inspected: usize,
}

impl MsBfsResult {
    /// Level of vertex `v` from source index `s`.
    #[inline]
    pub fn level(&self, v: VertexId, s: usize) -> u32 {
        self.levels[v as usize * self.batch + s]
    }

    /// The full level vector of source index `s` — the exact shape
    /// [`crate::bfs::BfsResult::level`] has, for differential testing.
    pub fn source_levels(&self, s: usize) -> Vec<u32> {
        assert!(
            s < self.batch,
            "source index {s} out of batch {}",
            self.batch
        );
        self.levels
            .iter()
            .skip(s)
            .step_by(self.batch)
            .copied()
            .collect()
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

/// Batched BFS from up to [`MAX_BATCH`] sources in one traversal.
///
/// Fallible like the other `try_*` algorithms: the context's [`RunBudget`]
/// is checked at iteration boundaries and (via chunk hooks) inside the
/// word sweep, fault-plan injections fire at their `(iteration, chunk)`
/// coordinates, and worker panics surface as [`ExecError::WorkerPanic`].
/// A malformed request — more than [`MAX_BATCH`] sources, or a source
/// outside the graph — is rejected up front as
/// [`ExecError::InvalidInput`], before any pooled buffer is taken. On any
/// error every pooled buffer is returned to the scratch first, so the
/// context — and the serving engine above it — stays fully reusable.
pub fn try_bfs_multi_source<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    sources: &[VertexId],
) -> Result<MsBfsResult, ExecError> {
    // The policy is a type-level dispatch token (P::IS_PARALLEL below).
    let _ = policy;
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
    if k == 0 || n == 0 {
        return Ok(MsBfsResult {
            levels,
            batch: k,
            iterations: 0,
            edges_inspected: 0,
        });
    }

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
        levels[v * k + s] = 0;
        active.insert(src);
    }

    let edges = Counter::new();
    let words = n.div_ceil(64);
    let mut iterations = 0usize;
    let outcome = loop {
        if active.is_empty() {
            break Ok(());
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
            let levels_at = as_atomic_u32(&mut levels);
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
                            next_at[dst].fetch_or(new, Ordering::Relaxed);
                            let mut bits = new;
                            while bits != 0 {
                                let s = bits.trailing_zeros() as usize;
                                bits &= bits - 1;
                                levels_at[dst * k + s].store(depth, Ordering::Relaxed);
                            }
                            next_active_ref.insert(dst as VertexId);
                        }
                    }
                });
                if inspected > 0 {
                    edges_ref.add(inspected);
                }
            };
            if P::IS_PARALLEL && ctx.num_threads() > 1 {
                ctx.pool().try_parallel_for(
                    0..words,
                    Schedule::Dynamic(WORD_GRAIN),
                    ctx.chunk_hooks(),
                    body,
                )
            } else {
                serial_sweep(ctx.chunk_hooks(), words, body)
            }
        };
        if let Err(e) = step {
            break Err(e);
        }
        // Consume the spent frontier words (only active vertices hold
        // non-zero words, so this is O(|frontier|) plus the bitmap scan),
        // then rotate the double buffer and the active bitmaps.
        active
            .bits()
            .for_each_set_in_words(0, words, &mut |v| frontier[v] = 0);
        std::mem::swap(&mut frontier, &mut next);
        active.clear();
        std::mem::swap(&mut active, &mut next_active);
        iterations += 1;
    };

    ctx.recycle_u64_buffer(visited);
    ctx.recycle_u64_buffer(frontier);
    ctx.recycle_u64_buffer(next);
    ctx.recycle_dense_frontier(active);
    ctx.recycle_dense_frontier(next_active);
    match outcome {
        Ok(()) => Ok(MsBfsResult {
            levels,
            batch: k,
            iterations,
            edges_inspected: edges.get(),
        }),
        Err(e) => {
            ctx.recycle_u32_buffer(levels);
            if let Some(obs) = ctx.obs() {
                obs.on_abort(&AbortEvent {
                    kind: e.kind(),
                    iteration: iterations,
                });
            }
            Err(e)
        }
    }
}

/// Sequential word sweep with the same chunk-hook discipline as the pool's
/// fallible loops: budget probes and fault injections fire at chunk
/// boundaries, organic panics are captured and typed.
fn serial_sweep(
    hooks: ChunkHooks<'_>,
    words: usize,
    body: impl Fn(usize),
) -> Result<(), ExecError> {
    let mut lo = 0usize;
    let mut chunk = 0usize;
    while lo < words {
        let hi = (lo + WORD_GRAIN).min(words);
        match hooks.before_chunk(chunk) {
            ChunkAction::Run => {}
            ChunkAction::Stop(reason) => {
                return Err(ExecError::Budget {
                    reason,
                    progress: Progress::default(),
                })
            }
            ChunkAction::Panic {
                iteration,
                chunk: at,
            } => {
                return Err(ExecError::WorkerPanic {
                    payload: format!("injected fault at (iteration {iteration}, chunk {at})"),
                    chunk,
                })
            }
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
            for w in lo..hi {
                body(w);
            }
        })) {
            return Err(ExecError::WorkerPanic {
                payload: panic_payload_string(&*payload),
                chunk,
            });
        }
        lo = hi;
        chunk += 1;
    }
    Ok(())
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
