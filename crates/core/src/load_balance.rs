//! Work-division strategies for frontier expansion (§IV-C).
//!
//! The naïve division — one task per frontier *vertex* — collapses on
//! power-law graphs: one hub vertex can own half the edges of an iteration
//! while thousands of degree-1 vertices finish instantly. The edge-balanced
//! strategy divides the *edge* work evenly instead: a prefix sum over the
//! frontier's degrees defines a global edge numbering, equal-size chunks of
//! which are handed to workers; each chunk locates its starting vertex by
//! binary search (the CPU analogue of GPU merge-path load balancing).
//!
//! The division reads only degrees and edge ranges, so it is the same for
//! every representation; a chunk that lands mid-row asks the adjacency
//! stream to start `skip` entries in — an index on raw CSR, a decoded and
//! discarded prefix (bounded by one row per chunk boundary) on compressed.

use essentials_graph::{EdgeId, OutAdjacency, VertexId};
use essentials_parallel::{parallel_scan_with, ChunkHooks, ExecError, Schedule};

use crate::context::Context;

/// Vertex-balanced iteration: one dynamic-scheduled task per frontier
/// vertex. `f(worker, src)` is called once per active vertex.
pub fn for_each_vertex_balanced<F>(ctx: &Context, frontier: &[VertexId], f: F)
where
    F: Fn(usize, VertexId) + Sync,
{
    ctx.pool()
        .parallel_for_with(0..frontier.len(), Schedule::Dynamic(64), |tid, i| {
            f(tid, frontier[i]);
        });
}

/// Edge-balanced iteration: `f(worker, src, dst, edge)` is called once per
/// out-edge of every frontier vertex, with edge work divided evenly across
/// workers regardless of degree skew.
///
/// The degree prefix sum lives in the context's advance scratch, so
/// steady-state calls allocate nothing; callers already holding the scratch
/// (the advance operators) use `try_for_each_edge_balanced_with` directly.
pub fn for_each_edge_balanced<G, F>(ctx: &Context, g: &G, frontier: &[VertexId], f: F)
where
    G: OutAdjacency + Sync,
    F: Fn(usize, VertexId, VertexId, EdgeId) + Sync,
{
    if let Err(e) = try_for_each_edge_balanced(ctx, g, frontier, ChunkHooks::none(), f) {
        panic!("{e}");
    }
}

/// Fallible [`for_each_edge_balanced`]: see
/// [`try_for_each_edge_balanced_with`] for the hook and panic contract.
pub(crate) fn try_for_each_edge_balanced<G, F>(
    ctx: &Context,
    g: &G,
    frontier: &[VertexId],
    hooks: ChunkHooks<'_>,
    f: F,
) -> Result<(), ExecError>
where
    G: OutAdjacency + Sync,
    F: Fn(usize, VertexId, VertexId, EdgeId) + Sync,
{
    let mut scratch = ctx.take_scratch();
    let crate::scratch::AdvanceScratch {
        offsets,
        chunk_sums,
        ..
    } = &mut *scratch;
    let run = try_for_each_edge_balanced_with(ctx, g, frontier, offsets, chunk_sums, hooks, f);
    ctx.put_scratch(scratch);
    run
}

/// Fallible edge-balanced iteration: `hooks` are consulted at every
/// work-chunk boundary (the chunk id is the edge-chunk ordinal, stable for
/// a given frontier regardless of thread count), and a panic in `f` is
/// captured as [`ExecError::WorkerPanic`] after the remaining chunks drain.
pub(crate) fn try_for_each_edge_balanced_with<G, F>(
    ctx: &Context,
    g: &G,
    frontier: &[VertexId],
    offsets: &mut Vec<usize>,
    chunk_sums: &mut Vec<usize>,
    hooks: ChunkHooks<'_>,
    f: F,
) -> Result<(), ExecError>
where
    G: OutAdjacency + Sync,
    F: Fn(usize, VertexId, VertexId, EdgeId) + Sync,
{
    // Prefix-sum the degrees in parallel: offsets[i] = first global work
    // item of frontier[i].
    let total = parallel_scan_with(
        ctx.pool(),
        frontier.len(),
        |i| g.out_degree(frontier[i]),
        offsets,
        chunk_sums,
    );
    if total == 0 {
        return Ok(());
    }
    let offsets: &[usize] = offsets;
    let threads = ctx.num_threads();
    let grain = (total / (threads * 8).max(1)).clamp(256, 1 << 16);
    let chunks = total.div_ceil(grain);

    ctx.pool()
        .try_parallel_for_with(0..chunks, Schedule::Dynamic(1), hooks, |tid, c| {
            let work_lo = c * grain;
            let work_hi = ((c + 1) * grain).min(total);
            // First frontier index whose edge range intersects [work_lo, ..).
            let mut fi = offsets.partition_point(|&o| o <= work_lo) - 1;
            let mut w = work_lo;
            while w < work_hi {
                let src = frontier[fi];
                // Position inside src's edge list.
                let inner = w - offsets[fi];
                let take = (offsets[fi + 1] - w).min(work_hi - w);
                for (e, dst) in g.out_edges_from(src, inner).take(take) {
                    f(tid, src, dst, e);
                }
                w += take;
                fi += 1;
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_graph::{Ccsr, Coo, Graph, GraphBase, OutNeighbors};
    use essentials_parallel::atomics::Counter;
    use essentials_parallel::ThreadPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn skewed() -> Graph<()> {
        // Vertex 0 has degree 64; vertices 1..=8 have degree 1.
        let mut coo = Coo::new(100);
        for d in 0..64 {
            coo.push(0, 30 + d as VertexId, ());
        }
        for v in 1..=8 {
            coo.push(v, 0, ());
        }
        Graph::from_coo(&coo)
    }

    /// Every edge of the frontier is visited exactly once, with the edge id
    /// and destination the raw CSR assigns it.
    fn assert_every_edge_once<G: OutAdjacency + Sync>(
        g: &G,
        raw: &Graph<()>,
        frontier: &[VertexId],
    ) {
        let ctx = Context::new(4);
        let hits: Vec<AtomicUsize> = (0..raw.num_edges()).map(|_| AtomicUsize::new(0)).collect();
        for_each_edge_balanced(&ctx, g, frontier, |_, src, dst, e| {
            assert!(
                raw.out_edges(src).contains(&e),
                "edge id outside source row"
            );
            assert_eq!(raw.edge_dest(e), dst, "destination does not match edge id");
            hits[e].fetch_add(1, Ordering::Relaxed);
        });
        let expected: usize = frontier.iter().map(|&v| raw.out_degree(v)).sum();
        let seen: usize = hits.iter().map(|h| h.load(Ordering::Relaxed)).sum();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
        assert_eq!(seen, expected);
    }

    #[test]
    fn edge_balanced_touches_every_edge_exactly_once() {
        let g = skewed();
        let frontier: Vec<VertexId> = (0..9).collect();
        assert_every_edge_once(&g, &g, &frontier);
    }

    #[test]
    fn chunks_starting_mid_row_skip_into_the_stream() {
        // A 1000-edge hub row against the 256-edge minimum grain: chunks 1–3
        // start 256, 512 and 768 entries into the row — an index on the raw
        // slice, a decoded-and-discarded prefix on the compressed stream.
        let mut coo = Coo::new(1200);
        for d in 0..1000 {
            coo.push(7, 100 + d as VertexId, ());
        }
        for v in 0..50 {
            coo.push(v, (v * 13 + 1) % 1200, ());
        }
        let g = Graph::from_coo(&coo);
        let compressed = Ccsr::from_csr(&ThreadPool::new(2), g.csr());
        let frontier: Vec<VertexId> = (0..60).collect();
        assert_every_edge_once(&g, &g, &frontier);
        assert_every_edge_once(&compressed, &g, &frontier);
    }

    #[test]
    fn edge_balanced_subset_frontier() {
        let g = skewed();
        let ctx = Context::new(2);
        // Only the degree-1 vertices.
        let frontier: Vec<VertexId> = (1..=8).collect();
        let count = Counter::new();
        for_each_edge_balanced(&ctx, &g, &frontier, |_, _, _, _| count.add(1));
        assert_eq!(count.get(), 8);
    }

    #[test]
    fn edge_balanced_empty_and_zero_degree() {
        let g = skewed();
        let ctx = Context::new(2);
        for_each_edge_balanced(&ctx, &g, &[], |_, _, _, _| panic!("no work expected"));
        // Frontier of sinks only.
        for_each_edge_balanced(&ctx, &g, &[50, 51], |_, _, _, _| {
            panic!("sinks have no edges")
        });
    }

    #[test]
    fn vertex_balanced_visits_each_entry() {
        let g = skewed();
        let _ = &g;
        let ctx = Context::new(3);
        let frontier: Vec<VertexId> = (0..1000).map(|i| (i % 50) as VertexId).collect();
        let count = Counter::new();
        for_each_vertex_balanced(&ctx, &frontier, |_, _| count.add(1));
        assert_eq!(count.get(), 1000);
    }
}
