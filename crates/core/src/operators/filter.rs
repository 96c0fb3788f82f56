//! Filter operators: frontier contraction.
//!
//! The complement of advance — drop active vertices that fail a predicate
//! (already-visited, out of scope) and collapse duplicates left behind by a
//! push expansion.

use std::panic::{catch_unwind, AssertUnwindSafe};

use essentials_frontier::{DenseFrontier, SparseFrontier};
use essentials_graph::VertexId;
use essentials_obs::{FilterEvent, OpKind};
use essentials_parallel::{
    exec::panic_payload_string, ChunkAction, ChunkHooks, ExecError, ExecutionPolicy, Progress,
};

use crate::context::Context;
use crate::operators::advance::try_collect_indexed;

/// Emits a [`FilterEvent`] if the context carries a sink. One call per
/// operator call — the instrumentation never enters the per-vertex loop.
fn emit(ctx: &Context, kind: OpKind, policy: &'static str, input_len: usize, output_len: usize) {
    if let Some(sink) = ctx.obs() {
        sink.on_filter(&FilterEvent {
            kind,
            policy,
            input_len,
            output_len,
        });
    }
}

/// Keeps the active vertices for which `pred` returns `true`. Input order
/// is preserved in the `Seq` path; parallel paths preserve per-worker order
/// only (frontiers are sets — callers needing canonical order uniquify).
pub fn filter<P, F>(policy: P, ctx: &Context, f: &SparseFrontier, pred: F) -> SparseFrontier
where
    P: ExecutionPolicy,
    F: Fn(VertexId) -> bool + Sync,
{
    match try_filter(policy, ctx, f, pred) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`filter`]: the context's budget and fault plan are consulted
/// at chunk boundaries, and a panicking predicate surfaces as
/// [`ExecError::WorkerPanic`] with the partial output discarded. The
/// context stays fully reusable after an error.
pub fn try_filter<P, F>(
    _policy: P,
    ctx: &Context,
    f: &SparseFrontier,
    pred: F,
) -> Result<SparseFrontier, ExecError>
where
    P: ExecutionPolicy,
    F: Fn(VertexId) -> bool + Sync,
{
    let hooks = ctx.chunk_hooks();
    if !P::IS_PARALLEL || ctx.num_threads() == 1 {
        if hooks.is_empty() {
            // Fast path: a panic in `pred` unwinds through the caller
            // untouched, exactly as before the fallible layer existed.
            let out: SparseFrontier = f.iter().filter(|&v| pred(v)).collect();
            emit(ctx, OpKind::Filter, P::NAME, f.len(), out.len());
            return Ok(out);
        }
        let verts = f.as_slice();
        let mut out = SparseFrontier::new();
        let mut lo = 0usize;
        let mut chunk = 0usize;
        while lo < verts.len() {
            let hi = (lo + 256).min(verts.len());
            match hooks.before_chunk(chunk) {
                ChunkAction::Run => {}
                ChunkAction::Stop(reason) => {
                    return Err(ExecError::Budget {
                        reason,
                        progress: Progress::default(),
                    });
                }
                ChunkAction::Panic {
                    iteration,
                    chunk: at,
                } => {
                    let payload = catch_unwind(AssertUnwindSafe(|| {
                        panic!("injected fault at (iteration {iteration}, chunk {at})")
                    }))
                    .unwrap_err();
                    return Err(ExecError::WorkerPanic {
                        payload: panic_payload_string(&*payload),
                        chunk,
                    });
                }
            }
            let out_ref = &mut out;
            catch_unwind(AssertUnwindSafe(|| {
                for &v in &verts[lo..hi] {
                    if pred(v) {
                        out_ref.add_vertex(v);
                    }
                }
            }))
            .map_err(|payload| ExecError::WorkerPanic {
                payload: panic_payload_string(&*payload),
                chunk,
            })?;
            lo = hi;
            chunk += 1;
        }
        emit(ctx, OpKind::Filter, P::NAME, f.len(), out.len());
        return Ok(out);
    }
    let out = try_collect_indexed(ctx, f.len(), hooks, |i| {
        let v = f.get_active_vertex(i);
        pred(v).then_some(v)
    })?;
    emit(ctx, OpKind::Filter, P::NAME, f.len(), out.len());
    Ok(out)
}

/// Sort-based uniquify: returns the frontier as a sorted duplicate-free
/// set. O(k log k) in frontier size, no auxiliary O(n) storage.
pub fn uniquify<P>(_policy: P, ctx: &Context, f: &SparseFrontier) -> SparseFrontier
where
    P: ExecutionPolicy,
{
    let mut out = f.clone();
    out.uniquify();
    emit(ctx, OpKind::Uniquify, P::NAME, f.len(), out.len());
    out
}

/// Bitmap-based uniquify over a universe of `n` vertices: O(k) time and
/// O(n) bits, parallel claim via atomic test-and-set. Wins over the sort
/// when the frontier is a large fraction of the graph.
pub fn uniquify_with_bitmap<P>(
    _policy: P,
    ctx: &Context,
    f: &SparseFrontier,
    n: usize,
) -> SparseFrontier
where
    P: ExecutionPolicy,
{
    let seen = DenseFrontier::new(n);
    if !P::IS_PARALLEL || ctx.num_threads() == 1 {
        let mut out = SparseFrontier::with_capacity(f.len());
        for v in f.iter() {
            if seen.insert(v) {
                out.add_vertex(v);
            }
        }
        emit(ctx, OpKind::Uniquify, P::NAME, f.len(), out.len());
        return out;
    }
    let out = try_collect_indexed(ctx, f.len(), ChunkHooks::none(), |i| {
        let v = f.get_active_vertex(i);
        seen.insert(v).then_some(v)
    })
    .unwrap_or_else(|e| panic!("{e}"));
    emit(ctx, OpKind::Uniquify, P::NAME, f.len(), out.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_parallel::execution;

    #[test]
    fn filter_keeps_matching_in_order_seq() {
        let ctx = Context::sequential();
        let f = SparseFrontier::from_vec(vec![5, 2, 8, 1]);
        let out = filter(execution::seq, &ctx, &f, |v| v >= 3);
        assert_eq!(out.as_slice(), &[5, 8]);
    }

    #[test]
    fn filter_policy_equivalence_as_sets() {
        let ctx = Context::new(4);
        let f: SparseFrontier = (0..10_000).collect();
        let mut a = filter(execution::seq, &ctx, &f, |v| v % 3 == 0);
        let mut b = filter(execution::par, &ctx, &f, |v| v % 3 == 0);
        a.uniquify();
        b.uniquify();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3334);
    }

    #[test]
    fn both_uniquify_flavors_agree() {
        let ctx = Context::new(4);
        let f = SparseFrontier::from_vec((0..5000).map(|i| i % 97).collect());
        let a = uniquify(execution::seq, &ctx, &f);
        let mut b = uniquify_with_bitmap(execution::par, &ctx, &f, 100);
        b.uniquify(); // canonical order for comparison
        assert_eq!(a, b);
        assert_eq!(a.len(), 97);
    }

    #[test]
    fn failed_parallel_filter_returns_drained_scratch() {
        let ctx = Context::new(2);
        let f: SparseFrontier = (0..10_000).collect();
        let err = try_filter(execution::par, &ctx, &f, |v| {
            assert!(v != 9_999, "boom");
            true
        });
        assert!(matches!(err, Err(ExecError::WorkerPanic { .. })));
        // The partial output's storage went back to the returned scratch's
        // pool (a fresh scratch would have none), with the buffers drained.
        let mut s = ctx.take_scratch();
        assert!(s.buffers.is_empty());
        assert!(s.take_vec().capacity() > 0);
        ctx.put_scratch(s);
        assert_eq!(filter(execution::par, &ctx, &f, |v| v < 10).len(), 10);
    }

    #[test]
    fn empty_inputs() {
        let ctx = Context::new(2);
        let f = SparseFrontier::new();
        assert!(filter(execution::par, &ctx, &f, |_| true).is_empty());
        assert!(uniquify_with_bitmap(execution::par, &ctx, &f, 10).is_empty());
    }
}
