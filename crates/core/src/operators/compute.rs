//! Compute operators: vertex programs applied over vertex sets.
//!
//! The "transformation" half of the paper's operator taxonomy — no
//! traversal, just a lambda over every (active) vertex. [`fill_indexed`]
//! builds a fresh value per vertex in parallel, the pattern algorithms use
//! to initialize property arrays.

use essentials_frontier::SparseFrontier;
use essentials_graph::VertexId;
use essentials_obs::{ComputeEvent, OpKind};
use essentials_parallel::{
    try_for_each_chunk_mut, ChunkHooks, ChunkSplit, ExecError, ExecutionPolicy, Schedule,
};

use crate::context::Context;
use crate::operators::try_for_with;

/// Emits a [`ComputeEvent`] if the context carries a sink. One call per
/// operator call — the instrumentation never enters the per-item loop.
fn emit(ctx: &Context, kind: OpKind, policy: &'static str, items: usize) {
    if let Some(sink) = ctx.obs() {
        sink.on_compute(&ComputeEvent {
            kind,
            policy,
            items,
        });
    }
}

/// Applies `f` to every vertex id in `0..n`.
pub fn foreach_vertex<P, F>(policy: P, ctx: &Context, n: usize, f: F)
where
    P: ExecutionPolicy,
    F: Fn(VertexId) + Sync,
{
    if let Err(e) = try_foreach_vertex(policy, ctx, n, f) {
        panic!("{e}");
    }
}

/// Fallible [`foreach_vertex`]: budget/fault hooks at chunk boundaries, a
/// panicking vertex program captured as [`ExecError::WorkerPanic`].
/// Vertex programs mutate caller state in place, so on an error some
/// vertices have been processed and others not — callers that need
/// all-or-nothing semantics re-initialize their property arrays.
pub fn try_foreach_vertex<P, F>(_policy: P, ctx: &Context, n: usize, f: F) -> Result<(), ExecError>
where
    P: ExecutionPolicy,
    F: Fn(VertexId) + Sync,
{
    try_for_with::<P, _>(
        ctx,
        0..n,
        Schedule::Dynamic(512),
        n,
        |_, i| f(i as VertexId),
    )?;
    emit(ctx, OpKind::ForeachVertex, P::NAME, n);
    Ok(())
}

/// Applies `f` to every active vertex of a sparse frontier (duplicates
/// included — vertex programs over frontiers must be idempotent or the
/// frontier uniquified first), with [`try_foreach_vertex`]'s chunk hooks and
/// error contract.
pub fn try_foreach_active<P, F>(
    _policy: P,
    ctx: &Context,
    frontier: &SparseFrontier,
    f: F,
) -> Result<(), ExecError>
where
    P: ExecutionPolicy,
    F: Fn(VertexId) + Sync,
{
    try_for_with::<P, _>(
        ctx,
        0..frontier.len(),
        Schedule::Dynamic(256),
        frontier.len(),
        |_, i| f(frontier.get_active_vertex(i)),
    )?;
    emit(ctx, OpKind::ForeachActive, P::NAME, frontier.len());
    Ok(())
}

/// Builds a `Vec<T>` of length `n` where slot `i` holds `f(i)`, computed in
/// parallel through [`fill_indexed_into`].
pub fn fill_indexed<P, T, F>(policy: P, ctx: &Context, n: usize, f: F) -> Vec<T>
where
    P: ExecutionPolicy,
    T: Default + Clone + Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    fill_indexed_into(policy, ctx, &mut out, f);
    out
}

/// Overwrites slot `i` of `out` with `f(i)`, computed in parallel: each
/// 512-slot window is one chunk of the chunk loop
/// ([`try_for_each_chunk_mut`]). This is the zero-allocation path the
/// fixpoint algorithms use to refill a pooled buffer each iteration
/// instead of collecting a fresh `Vec` (DESIGN.md §12).
pub fn fill_indexed_into<P, T, F>(_policy: P, ctx: &Context, out: &mut [T], f: F)
where
    P: ExecutionPolicy,
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    const GRAIN: usize = 512;
    let n = out.len();
    let split = ChunkSplit::Len(GRAIN);
    try_for_each_chunk_mut(
        P::IS_PARALLEL.then(|| ctx.pool()),
        out,
        split,
        n,
        ChunkHooks::none(),
        |c, window| {
            for (j, slot) in window.iter_mut().enumerate() {
                *slot = f(c * GRAIN + j);
            }
        },
    )
    .unwrap_or_else(|e| panic!("{e}"));
    emit(ctx, OpKind::FillIndexed, P::NAME, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_parallel::atomics::Counter;
    use essentials_parallel::execution;

    #[test]
    fn foreach_vertex_visits_all() {
        let ctx = Context::new(3);
        let count = Counter::new();
        foreach_vertex(execution::par, &ctx, 5000, |_| count.add(1));
        assert_eq!(count.get(), 5000);
    }

    #[test]
    fn foreach_active_includes_duplicates() {
        let ctx = Context::new(2);
        let f = SparseFrontier::from_vec(vec![1, 1, 2]);
        let count = Counter::new();
        try_foreach_active(execution::seq, &ctx, &f, |_| count.add(1)).unwrap();
        assert_eq!(count.get(), 3);
        try_foreach_active(execution::par, &ctx, &f, |_| count.add(1)).unwrap();
        assert_eq!(count.get(), 6);
    }

    #[test]
    fn fill_indexed_matches_sequential_collect() {
        let ctx = Context::new(4);
        let par = fill_indexed(execution::par, &ctx, 10_000, |i| i * i);
        let seq: Vec<usize> = (0..10_000).map(|i| i * i).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn fill_indexed_handles_drop_types() {
        let ctx = Context::new(4);
        let v = fill_indexed(execution::par, &ctx, 5000, |i| format!("{i}"));
        assert_eq!(v[4999], "4999");
        assert_eq!(v.len(), 5000);
    }

    #[test]
    fn fill_indexed_zero_len() {
        let ctx = Context::new(2);
        let v: Vec<u8> = fill_indexed(execution::par, &ctx, 0, |_| 1);
        assert!(v.is_empty());
    }

    #[test]
    fn fill_indexed_into_overwrites_in_place() {
        let ctx = Context::new(4);
        let mut buf = vec![0usize; 10_000];
        fill_indexed_into(execution::par, &ctx, &mut buf, |i| i * 3);
        let seq: Vec<usize> = (0..10_000).map(|i| i * 3).collect();
        assert_eq!(buf, seq);
        // Sequential policy takes the plain loop and agrees.
        let mut buf2 = vec![0usize; 10_000];
        fill_indexed_into(execution::seq, &ctx, &mut buf2, |i| i * 3);
        assert_eq!(buf2, seq);
    }

    #[test]
    fn fill_indexed_into_drops_old_values() {
        let ctx = Context::new(4);
        let mut buf: Vec<String> = (0..4000).map(|i| format!("old{i}")).collect();
        fill_indexed_into(execution::par, &ctx, &mut buf, |i| format!("new{i}"));
        assert_eq!(buf[3999], "new3999");
    }
}
