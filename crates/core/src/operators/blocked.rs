//! Propagation-blocked gather and pull operators (DESIGN.md §12).
//!
//! Full-frontier pull iterations (PageRank, HITS) read a source value per
//! edge at a random address, so once the rank vector outgrows the cache
//! every edge is a miss. Propagation blocking restructures the iteration:
//! contributions are *binned* by destination cache block first, then each
//! bin is flushed into a destination range small enough to stay resident.
//! Both passes stream sequentially through memory; the only random access
//! left is confined to one bin-sized window at a time.
//!
//! Two operators share the machinery:
//!
//! * [`BlockedGather`] — a reusable binned layout for full-frontier
//!   gathers. Built once per run (counting sort of the edge list into
//!   bin-major segments), then [`BlockedGather::gather`] replays it every
//!   iteration with fresh source values, allocation-free.
//! * [`try_expand_blocked_pull`] — a frontier-masked pull with the same
//!   signature family as `try_expand_pull_masked`, for direction-optimized
//!   traversals whose dense iterations dominate.
//!
//! Determinism: bins are fixed disjoint destination ranges, each flushed
//! by exactly one worker in ascending entry order, and entry order is
//! fixed by the layout (source-chunk-ascending, i.e. source-ascending)
//! independent of the worker count. Results are therefore bit-identical
//! across thread counts, unlike an atomic scatter.

use essentials_frontier::DenseFrontier;
use essentials_graph::{EdgeId, EdgeValue, InAdjacency, OutAdjacency, OutWeights, VertexId};
use essentials_obs::{AdvanceEvent, OpKind};
use essentials_parallel::{
    try_sequential_for_with, ChunkHooks, ExecError, ExecutionPolicy, Schedule,
};

use crate::context::Context;
use crate::operators::advance::PullConfig;

/// Sources per fixed layout chunk. One chunk of `f64` source values is
/// 32 KiB — L1-resident — so the value-fill pass reads its random source
/// window from L1 while streaming the entry arrays.
const SRC_CHUNK: usize = 4096;

/// Bitmap words per fixed chunk on the masked path (64 words = 4096
/// source slots, mirroring [`SRC_CHUNK`]).
const WORD_CHUNK: usize = 64;

/// Tuning for the blocked operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedConfig {
    /// log2 of the destinations per bin. The flush working set is
    /// `8 << bin_bits` bytes of destination data; the default of 15
    /// (32 Ki destinations, 256 KiB) fits comfortably in an L2 slice.
    pub bin_bits: u32,
}

impl Default for BlockedConfig {
    fn default() -> Self {
        BlockedConfig { bin_bits: 15 }
    }
}

impl BlockedConfig {
    fn clamped_bits(self) -> u32 {
        self.bin_bits.clamp(4, 31)
    }
}

/// Shared-pointer shim for disjoint-index writes from a parallel region.
struct SendPtr<T>(*mut T);
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}
// SAFETY: only used to write disjoint indices from within a joined
// parallel region; the underlying borrow outlives the region.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Runs `f(chunk)` for every chunk in `0..nchunks` under `hooks` — on the
/// pool when `parallel` ([`ThreadPool::try_for_each_chunk`], which claims
/// from each worker's own even segment first and dispatches on the `work`
/// the chunks hold — vertex slots or binned entries — not on their few
/// number), in order on the calling thread otherwise. Every chunk runs
/// exactly once; `f` must tolerate concurrent invocation on distinct
/// chunks.
///
/// [`ThreadPool::try_for_each_chunk`]: essentials_parallel::ThreadPool::try_for_each_chunk
fn for_each_chunk<F>(
    ctx: &Context,
    parallel: bool,
    nchunks: usize,
    work: usize,
    hooks: ChunkHooks<'_>,
    f: F,
) -> Result<(), ExecError>
where
    F: Fn(usize) + Sync,
{
    if parallel {
        ctx.pool()
            .try_for_each_chunk(nchunks, work, hooks, |_, c| f(c))
    } else {
        try_sequential_for_with(0..nchunks, Schedule::Dynamic(1), hooks, |_, c| f(c))
    }
}

/// A destination-binned edge layout for allocation-free blocked gathers.
///
/// Construction runs a parallel counting sort of every edge `(u, v)` into
/// bin-major, source-chunk-ascending segments: `dsts`/`srcs` hold the
/// edge endpoints, `offsets[b * nchunks + c]` the start of bin `b`'s
/// entries contributed by source chunk `c`. Each iteration then calls
/// [`gather`](Self::gather), which never touches the graph again — it
/// streams the fixed layout.
///
/// All buffers come from the context's scratch pools and return there via
/// [`finish`](Self::finish), so a build-gather-finish cycle is
/// allocation-free once the pools are warm.
pub struct BlockedGather {
    n: usize,
    m: usize,
    nbins: usize,
    nchunks: usize,
    bin_bits: u32,
    /// `nbins * nchunks + 1` exclusive prefix offsets into `dsts`/`srcs`.
    offsets: Vec<usize>,
    dsts: Vec<u32>,
    srcs: Vec<u32>,
    /// Per-iteration contribution values, `vals[k] = src_val(srcs[k])`.
    vals: Vec<f64>,
}

impl BlockedGather {
    /// Builds the layout from the out-adjacency stream: entry `(u, v)` for
    /// every out-edge `u → v`, so a gather computes `out[v] = Σ src_val(u)`
    /// over in-edges without touching the in-adjacency.
    pub fn over_out_edges<P, G>(_policy: P, ctx: &Context, g: &G, cfg: BlockedConfig) -> Self
    where
        P: ExecutionPolicy,
        G: OutAdjacency + Sync,
    {
        Self::build::<P, _, _>(ctx, g.num_vertices(), cfg, |u| g.out_neighbors_from(u))
    }

    /// Builds the layout from the in-adjacency stream: entry `(u, v)` for
    /// every in-edge `v → u` — the transpose of [`Self::over_out_edges`].
    pub fn over_in_edges<P, G>(_policy: P, ctx: &Context, g: &G, cfg: BlockedConfig) -> Self
    where
        P: ExecutionPolicy,
        G: InAdjacency + Sync,
    {
        Self::build::<P, _, _>(ctx, g.num_vertices(), cfg, |u| g.in_neighbors_from(u))
    }

    /// `targets(u)` streams the destinations `u` contributes to — a slice
    /// walk on raw adjacency, a decoder on compressed — once per pass.
    fn build<P, F, I>(ctx: &Context, n: usize, cfg: BlockedConfig, targets: F) -> Self
    where
        P: ExecutionPolicy,
        F: Fn(VertexId) -> I + Sync,
        I: Iterator<Item = VertexId>,
    {
        let parallel = P::IS_PARALLEL && ctx.num_threads() > 1;
        let bin_bits = cfg.clamped_bits();
        let nbins = n.div_ceil(1usize << bin_bits);
        let nchunks = n.div_ceil(SRC_CHUNK);
        let cells = nbins * nchunks;

        let mut s = ctx.take_scratch();
        let mut offsets = s.take_usize();
        let mut cursors = s.take_usize();
        let mut dsts = s.take_u32();
        let mut srcs = s.take_u32();
        let vals = s.take_f64();
        ctx.put_scratch(s);

        offsets.resize(cells + 1, 0); // alloc-ok: cold growth, pooled across runs
        cursors.resize(cells, 0); // alloc-ok: cold growth, pooled across runs
        cursors[..].fill(0);

        // Count pass: cell (bin, chunk) counts edges from source chunk
        // `chunk` into bin `bin`. Cells of one chunk column are written
        // only by the worker running that chunk, so writes are disjoint
        // and need no atomics.
        {
            let cptr = SendPtr(cursors.as_mut_ptr());
            let cptr = &cptr;
            let targets = &targets;
            for_each_chunk(ctx, parallel, nchunks, n, ChunkHooks::none(), |c| {
                let lo = c * SRC_CHUNK;
                let hi = ((c + 1) * SRC_CHUNK).min(n);
                for u in lo..hi {
                    for d in targets(u as VertexId) {
                        let cell = ((d as usize) >> bin_bits) * nchunks + c;
                        // SAFETY: column `c` of the count matrix is owned
                        // by this chunk invocation; `for_each_chunk` runs
                        // each chunk exactly once.
                        unsafe { *cptr.get().add(cell) += 1 };
                    }
                }
            })
            .unwrap_or_else(|e| panic!("{e}"));
        }

        // Exclusive prefix scan over the ~(nbins * nchunks) cells —
        // trivially serial next to the two edge-order passes.
        let mut acc = 0usize;
        for i in 0..cells {
            offsets[i] = acc;
            acc += cursors[i];
        }
        offsets[cells] = acc;
        let m = acc;

        dsts.resize(m, 0); // alloc-ok: cold growth, pooled across runs
        srcs.resize(m, 0); // alloc-ok: cold growth, pooled across runs

        // Fill pass: same traversal, writing each edge at its cell cursor.
        cursors.copy_from_slice(&offsets[..cells]);
        {
            let cptr = SendPtr(cursors.as_mut_ptr());
            let dptr = SendPtr(dsts.as_mut_ptr());
            let sptr = SendPtr(srcs.as_mut_ptr());
            let (cptr, dptr, sptr) = (&cptr, &dptr, &sptr);
            let targets = &targets;
            for_each_chunk(ctx, parallel, nchunks, n, ChunkHooks::none(), |c| {
                let lo = c * SRC_CHUNK;
                let hi = ((c + 1) * SRC_CHUNK).min(n);
                for u in lo..hi {
                    for d in targets(u as VertexId) {
                        let cell = ((d as usize) >> bin_bits) * nchunks + c;
                        // SAFETY: the cell cursor (column-disjoint, see
                        // count pass) hands out unique slots within this
                        // cell's segment, so the entry writes are
                        // unaliased across workers.
                        unsafe {
                            let k = *cptr.get().add(cell);
                            *cptr.get().add(cell) = k + 1;
                            *dptr.get().add(k) = d;
                            *sptr.get().add(k) = u as u32;
                        }
                    }
                }
            })
            .unwrap_or_else(|e| panic!("{e}"));
        }

        let mut s = ctx.take_scratch();
        s.put_usize(cursors);
        ctx.put_scratch(s);

        BlockedGather {
            n,
            m,
            nbins,
            nchunks,
            bin_bits,
            offsets,
            dsts,
            srcs,
            vals,
        }
    }

    /// Number of binned edge entries (the edge count of the adjacency the
    /// layout was built over).
    pub fn num_entries(&self) -> usize {
        self.m
    }

    /// One blocked gather iteration:
    /// `out[v] = finalize(v, Σ src_val(u) over layout entries (u, v))`.
    ///
    /// Two streaming passes: the *fill* writes `vals[k] =
    /// src_val(srcs[k])` (each layout segment reads sources from one
    /// `SRC_CHUNK` window, so the random reads stay cache-resident),
    /// then the *flush* accumulates each bin's contiguous entries into
    /// its destination window and finalizes it. Every `out` slot is
    /// overwritten; slots with no incoming entries get `finalize(v, 0.0)`.
    ///
    /// Deterministic across thread counts: per destination, entries are
    /// accumulated in ascending source order (the layout order), matching
    /// a sequential CSC pull term-for-term.
    ///
    /// # Panics
    ///
    /// Panics when `out.len()` differs from the vertex count the layout
    /// was built over.
    pub fn gather<P, F, Z>(
        &mut self,
        _policy: P,
        ctx: &Context,
        src_val: F,
        finalize: Z,
        out: &mut [f64],
    ) where
        P: ExecutionPolicy,
        F: Fn(usize) -> f64 + Sync,
        Z: Fn(usize, f64) -> f64 + Sync,
    {
        assert_eq!(out.len(), self.n, "gather output length must match layout");
        let parallel = P::IS_PARALLEL && ctx.num_threads() > 1;
        if self.vals.len() != self.m {
            self.vals.resize(self.m, 0.0); // alloc-ok: first iteration only; pooled
        }

        // Fill pass: flat, embarrassingly parallel.
        if parallel {
            let vptr = SendPtr(self.vals.as_mut_ptr());
            let vptr = &vptr;
            let srcs = &self.srcs;
            ctx.pool()
                .parallel_for(0..self.m, Schedule::Dynamic(SRC_CHUNK), |k| {
                    // SAFETY: k is visited exactly once (parallel_for
                    // contract); the borrow outlives the joined loop.
                    unsafe { *vptr.get().add(k) = src_val(srcs[k] as usize) };
                });
        } else {
            for k in 0..self.m {
                self.vals[k] = src_val(self.srcs[k] as usize);
            }
        }

        // Flush pass: one bin = one disjoint destination window, entries
        // contiguous and source-ascending.
        let bin_size = 1usize << self.bin_bits;
        let optr = SendPtr(out.as_mut_ptr());
        let optr = &optr;
        let (n, nchunks) = (self.n, self.nchunks);
        let (offsets, dsts, vals) = (&self.offsets, &self.dsts, &self.vals);
        let finalize = &finalize;
        for_each_chunk(ctx, parallel, self.nbins, self.m, ChunkHooks::none(), |b| {
            let v_lo = b * bin_size;
            let v_hi = ((b + 1) * bin_size).min(n);
            let k_lo = offsets[b * nchunks];
            let k_hi = offsets[(b + 1) * nchunks];
            // SAFETY: bin `b` exclusively owns destination slots
            // `v_lo..v_hi`; every `dsts[k]` in the bin's entry range lies
            // in that window by construction, so all writes through the
            // shared pointer are disjoint across bins.
            unsafe {
                for v in v_lo..v_hi {
                    *optr.get().add(v) = 0.0;
                }
                for k in k_lo..k_hi {
                    *optr.get().add(dsts[k] as usize) += vals[k];
                }
                for v in v_lo..v_hi {
                    let acc = *optr.get().add(v);
                    *optr.get().add(v) = finalize(v, acc);
                }
            }
        })
        .unwrap_or_else(|e| panic!("{e}"));

        if let Some(sink) = ctx.obs() {
            sink.on_advance(&AdvanceEvent {
                kind: OpKind::GatherBlocked,
                policy: P::NAME,
                frontier_in: self.n,
                edges_inspected: self.m as u64,
                admitted: self.m as u64,
                output_len: self.n,
                dedup_hits: 0,
                per_worker: &[],
            });
        }
    }

    /// Returns every pooled buffer to the context's scratch pools so the
    /// next layout (or any numeric consumer) reuses the capacity.
    pub fn finish(self, ctx: &Context) {
        let mut s = ctx.take_scratch();
        s.put_usize(self.offsets);
        s.put_u32(self.dsts);
        s.put_u32(self.srcs);
        s.put_f64(self.vals);
        ctx.put_scratch(s);
    }
}

/// Frontier-masked pull expansion through propagation blocking.
///
/// Semantically equivalent to
/// [`try_expand_pull_masked`](crate::operators::advance::try_expand_pull_masked)
/// — the output is the set of `dst ∈ candidates` with an edge `src → dst`
/// from an active `src` whose `condition(src, dst, w)` holds — but driven
/// from the out-adjacency side: active sources' out-edges are streamed
/// (twice: count pass, fill pass — sliced on raw CSR, decoded on compressed)
/// into destination-binned entries, then each bin flushes with
/// cache-resident candidate/output probes. It needs no in-adjacency at all.
/// The condition sees exactly the edges whose source is active
/// (order differs from the CSC scan; side-effectful conditions must be
/// commutative, as everywhere in the advance family). With
/// `cfg.early_exit`, at most one admitting edge per destination is
/// evaluated *after* admission within a bin, mirroring the CSC scan's
/// per-destination break.
///
/// The returned scan count is the number of binned entries — out-edges of
/// active sources — where the CSC path counts in-edges of candidates.
///
/// Unlike [`BlockedGather`], the bin layout is rebuilt per call (the
/// active set changes every iteration); all buffers are pooled, so
/// steady-state calls stay allocation-free. Hooks fire at every chunk of
/// each pass (count, fill, flush); an error stops before the next pass,
/// and the pooled buffers and the output bitmap go back to the context.
#[allow(clippy::too_many_arguments)]
pub fn try_expand_blocked_pull<P, G, W, F>(
    _policy: P,
    ctx: &Context,
    g: &G,
    input: &DenseFrontier,
    candidates: &DenseFrontier,
    cfg: PullConfig,
    bcfg: BlockedConfig,
    condition: F,
) -> Result<(DenseFrontier, usize), ExecError>
where
    P: ExecutionPolicy,
    G: OutWeights<W> + Sync,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, W) -> bool + Sync,
{
    let n = g.num_vertices();
    debug_assert_eq!(candidates.capacity(), n);
    assert!(
        g.num_edges() <= u32::MAX as usize,
        "try_expand_blocked_pull packs edge ids into u32 entries"
    );
    let output = ctx.take_dense_frontier(n);
    let parallel = P::IS_PARALLEL && ctx.num_threads() > 1;
    let bin_bits = bcfg.clamped_bits();
    let nbins = n.div_ceil(1usize << bin_bits);
    let words = input.bits().num_words();
    let nchunks = words.div_ceil(WORD_CHUNK);
    let cells = nbins * nchunks;

    let mut s = ctx.take_scratch();
    let mut offsets = s.take_usize();
    let mut cursors = s.take_usize();
    let mut entries = s.take_u32();
    ctx.put_scratch(s);

    offsets.resize(cells + 1, 0); // alloc-ok: cold growth, pooled across calls
    cursors.resize(cells, 0); // alloc-ok: cold growth, pooled across calls
    cursors[..].fill(0);
    let bits = input.bits();
    let hooks = ctx.chunk_hooks();

    let passes = (|| -> Result<usize, ExecError> {
        // Count pass over active sources, chunked by bitmap words.
        {
            let cptr = SendPtr(cursors.as_mut_ptr());
            let cptr = &cptr;
            for_each_chunk(ctx, parallel, nchunks, n, hooks, |c| {
                let w_lo = c * WORD_CHUNK;
                let w_hi = ((c + 1) * WORD_CHUNK).min(words);
                bits.for_each_set_in_words(w_lo, w_hi, &mut |src| {
                    for d in g.out_neighbors_from(src as VertexId) {
                        let cell = ((d as usize) >> bin_bits) * nchunks + c;
                        // SAFETY: column `c` of the count matrix is owned by
                        // this chunk invocation (see BlockedGather::build).
                        unsafe { *cptr.get().add(cell) += 1 };
                    }
                });
            })?;
        }

        let mut acc = 0usize;
        for i in 0..cells {
            offsets[i] = acc;
            acc += cursors[i];
        }
        offsets[cells] = acc;
        let m = acc;

        // Fill pass: stride-3 entries (dst, src, edge) at the cell cursors.
        // Edge ids advance with the stream position, so they are the CSR
        // numbering on every representation.
        entries.resize(3 * m, 0); // alloc-ok: cold growth, pooled across calls
        cursors.copy_from_slice(&offsets[..cells]);
        {
            let cptr = SendPtr(cursors.as_mut_ptr());
            let eptr = SendPtr(entries.as_mut_ptr());
            let (cptr, eptr) = (&cptr, &eptr);
            for_each_chunk(ctx, parallel, nchunks, n, hooks, |c| {
                let w_lo = c * WORD_CHUNK;
                let w_hi = ((c + 1) * WORD_CHUNK).min(words);
                bits.for_each_set_in_words(w_lo, w_hi, &mut |src| {
                    for (e, d) in g.out_edges_from(src as VertexId) {
                        let cell = ((d as usize) >> bin_bits) * nchunks + c;
                        // SAFETY: column-disjoint cursors hand out unique
                        // entry slots (see BlockedGather::build), and the
                        // count pass completed, so every slot is in bounds.
                        unsafe {
                            let k = *cptr.get().add(cell);
                            *cptr.get().add(cell) = k + 1;
                            let at = eptr.get().add(3 * k);
                            *at = d;
                            *at.add(1) = src as u32;
                            *at.add(2) = e as u32;
                        }
                    }
                });
            })?;
        }

        // Flush: each bin probes candidates/output within one cache-resident
        // destination window. `output` insertion is a bare atomic bit set,
        // so cross-bin writes need no coordination; the cached count is
        // settled by one `recount` after the flush.
        let output = &output;
        let (offsets, entries) = (&offsets, &entries);
        let condition = &condition;
        for_each_chunk(ctx, parallel, nbins, m, hooks, |b| {
            for k in offsets[b * nchunks]..offsets[(b + 1) * nchunks] {
                let dst = entries[3 * k];
                if cfg.early_exit && output.contains(dst) {
                    continue;
                }
                if !candidates.contains(dst) {
                    continue;
                }
                let src = entries[3 * k + 1];
                let e = entries[3 * k + 2] as EdgeId;
                if condition(src, dst, g.edge_weight(e)) {
                    output.bits().set(dst as usize);
                }
            }
        })?;
        output.recount();
        Ok(m)
    })();

    let mut s = ctx.take_scratch();
    s.put_usize(offsets);
    s.put_usize(cursors);
    s.put_u32(entries);
    ctx.put_scratch(s);

    let m = match passes {
        Ok(m) => m,
        Err(e) => {
            ctx.recycle_dense_frontier(output);
            return Err(e);
        }
    };
    if let Some(sink) = ctx.obs() {
        let out_len = output.len();
        sink.on_advance(&AdvanceEvent {
            kind: OpKind::PullBlocked,
            policy: P::NAME,
            frontier_in: input.len(),
            edges_inspected: m as u64,
            admitted: out_len as u64,
            output_len: out_len,
            dedup_hits: 0,
            per_worker: &[],
        });
    }
    Ok((output, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::advance::expand_pull_masked;
    use essentials_graph::{
        CompressedGraph, Graph, GraphBase, GraphBuilder, InAdjacency, OutAdjacency, OutNeighbors,
    };
    use essentials_parallel::{execution, ThreadPool};

    fn ring_with_chords(n: usize) -> Graph<f32> {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as VertexId {
            let n32 = n as VertexId;
            b = b.edge(v, (v + 1) % n32, 1.0);
            b = b.edge(v, (v * 7 + 3) % n32, 1.0);
        }
        b.deduplicate().with_csc().build()
    }

    fn naive_out_gather(g: &Graph<f32>, val: impl Fn(usize) -> f64) -> Vec<f64> {
        let n = g.num_vertices();
        let mut out = vec![0.0; n];
        for u in 0..n as VertexId {
            for &d in g.out_neighbors(u) {
                out[d as usize] += val(u as usize);
            }
        }
        out
    }

    /// One out-edge blocked gather of `val` over `g`.
    fn out_gather_of<G: OutAdjacency + Sync>(
        ctx: &Context,
        g: &G,
        val: impl Fn(usize) -> f64 + Sync,
    ) -> Vec<f64> {
        let cfg = BlockedConfig { bin_bits: 5 };
        let mut bg = BlockedGather::over_out_edges(execution::par, ctx, g, cfg);
        assert_eq!(bg.num_entries(), g.num_edges());
        let mut out = vec![-1.0; g.num_vertices()];
        bg.gather(execution::par, ctx, val, |_, acc| acc, &mut out);
        bg.finish(ctx);
        out
    }

    #[test]
    fn blocked_gather_matches_naive_scatter_exactly() {
        let g = ring_with_chords(300);
        // The layout builds from the adjacency stream, so the byte-coded
        // rows bin to the same entries in the same order.
        let cg = CompressedGraph::from_graph(&ThreadPool::new(2), &g);
        let val = |u: usize| 1.0 / (u + 1) as f64;
        for threads in [1, 4] {
            let ctx = Context::new(threads);
            let raw = out_gather_of(&ctx, &g, val);
            assert_eq!(raw, naive_out_gather(&g, val), "threads={threads}");
            assert_eq!(out_gather_of(&ctx, &cg, val), raw, "threads={threads}");
        }
    }

    #[test]
    fn blocked_gather_finalize_applies_per_vertex() {
        let g = ring_with_chords(64);
        let ctx = Context::new(2);
        let cfg = BlockedConfig { bin_bits: 4 };
        let mut bg = BlockedGather::over_out_edges(execution::par, &ctx, &g, cfg);
        let mut out = vec![0.0; g.num_vertices()];
        bg.gather(
            execution::par,
            &ctx,
            |_| 1.0,
            |v, acc| v as f64 + 0.5 * acc,
            &mut out,
        );
        bg.finish(&ctx);
        let naive = naive_out_gather(&g, |_| 1.0);
        for v in 0..g.num_vertices() {
            assert_eq!(out[v], v as f64 + 0.5 * naive[v]);
        }
    }

    #[test]
    fn in_edge_gather_is_the_transpose() {
        // u → v edges: InEdges gather over the CSC sends each vertex's
        // value to its in-neighbors, i.e. out[u] += val(v) per edge u → v.
        let g = ring_with_chords(100);
        let ctx = Context::new(3);
        let cfg = BlockedConfig { bin_bits: 4 };
        let mut bg = BlockedGather::over_in_edges(execution::par, &ctx, &g, cfg);
        let mut out = vec![0.0; g.num_vertices()];
        let val = |v: usize| (v % 13) as f64;
        bg.gather(execution::par, &ctx, val, |_, acc| acc, &mut out);
        bg.finish(&ctx);
        let mut naive = vec![0.0; g.num_vertices()];
        for u in 0..g.num_vertices() as VertexId {
            for &d in g.out_neighbors(u) {
                naive[u as usize] += val(d as usize);
            }
        }
        assert_eq!(out, naive);
    }

    #[test]
    fn gather_is_bit_identical_across_thread_counts() {
        let g = ring_with_chords(500);
        let val = |u: usize| 0.1 + 1.0 / (u + 3) as f64;
        let mut reference: Option<Vec<f64>> = None;
        for threads in [1, 2, 8] {
            let ctx = Context::new(threads);
            let cfg = BlockedConfig { bin_bits: 6 };
            let mut bg = BlockedGather::over_out_edges(execution::par, &ctx, &g, cfg);
            let mut out = vec![0.0; g.num_vertices()];
            bg.gather(
                execution::par,
                &ctx,
                val,
                |_, acc| 0.15 + 0.85 * acc,
                &mut out,
            );
            bg.finish(&ctx);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "threads={threads}"),
            }
        }
    }

    #[test]
    fn empty_graph_gathers_nothing() {
        let g: Graph<f32> = GraphBuilder::new(0).with_csc().build();
        let ctx = Context::new(2);
        let mut bg =
            BlockedGather::over_out_edges(execution::par, &ctx, &g, BlockedConfig::default());
        let mut out: Vec<f64> = vec![];
        bg.gather(execution::par, &ctx, |_| 1.0, |_, acc| acc, &mut out);
        bg.finish(&ctx);
    }

    fn cond(src: VertexId, dst: VertexId, _w: f32) -> bool {
        !(src + dst).is_multiple_of(5)
    }

    /// Sorted output set and scan count of one blocked pull over `g`.
    fn blocked_pull_of<G: OutWeights<f32> + Sync>(
        ctx: &Context,
        g: &G,
        input: &DenseFrontier,
        candidates: &DenseFrontier,
    ) -> (Vec<VertexId>, usize) {
        let (out, scanned) = try_expand_blocked_pull(
            execution::par,
            ctx,
            g,
            input,
            candidates,
            PullConfig { early_exit: false },
            BlockedConfig { bin_bits: 5 },
            cond,
        )
        .unwrap();
        let mut set: Vec<VertexId> = out.iter().collect();
        set.sort_unstable();
        (set, scanned)
    }

    #[test]
    fn blocked_pull_matches_masked_pull_output_set() {
        let g = ring_with_chords(400);
        // The same rows decoded from the byte-coded stream must bin and
        // flush to the same set with the same scan count.
        let cg = CompressedGraph::from_graph(&ThreadPool::new(2), &g);
        let n = g.num_vertices();
        for threads in [1, 4] {
            let ctx = Context::new(threads);
            let input = DenseFrontier::new(n);
            for v in (0..n as VertexId).filter(|v| v % 3 == 0) {
                input.insert(v);
            }
            let candidates = DenseFrontier::new(n);
            for v in (0..n as VertexId).filter(|v| v % 2 == 0) {
                candidates.insert(v);
            }
            let (masked, _) = expand_pull_masked(
                execution::par,
                &ctx,
                &g,
                &input,
                &candidates,
                PullConfig { early_exit: false },
                cond,
            );
            let mut expected: Vec<VertexId> = masked.iter().collect();
            expected.sort_unstable();
            // Scan count is the out-edges of the active set.
            let out_edges: usize = input.iter().map(|v| g.out_degree(v)).sum();
            let raw = blocked_pull_of(&ctx, &g, &input, &candidates);
            let compressed = blocked_pull_of(&ctx, &cg, &input, &candidates);
            assert_eq!(raw, (expected, out_edges), "threads={threads}");
            assert_eq!(compressed, raw, "threads={threads}");
        }
    }

    #[test]
    fn blocked_pull_early_exit_still_finds_every_reachable_candidate() {
        let g = ring_with_chords(200);
        let n = g.num_vertices();
        let ctx = Context::new(4);
        let input = DenseFrontier::new(n);
        input.set_all();
        let candidates = DenseFrontier::new(n);
        candidates.set_all();
        let (out, _) = try_expand_blocked_pull(
            execution::par,
            &ctx,
            &g,
            &input,
            &candidates,
            PullConfig { early_exit: true },
            BlockedConfig { bin_bits: 4 },
            |_, _, _| true,
        )
        .unwrap();
        // Every vertex with an in-edge is admitted exactly once.
        let with_in: usize = (0..n as VertexId).filter(|&v| g.in_degree(v) > 0).count();
        assert_eq!(out.len(), with_in);
    }
}
