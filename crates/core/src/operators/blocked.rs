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

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

use essentials_frontier::DenseFrontier;
use essentials_graph::{EdgeId, EdgeValue, InAdjacency, OutAdjacency, OutWeights, VertexId};
use essentials_obs::{AdvanceEvent, OpKind};
use essentials_parallel::atomics::as_atomic_u32;
use essentials_parallel::{
    try_for_each_chunk_mut, ChunkHooks, ChunkSplit, ExecError, ExecutionPolicy, Schedule,
    ThreadPool,
};

use crate::context::Context;
use crate::operators::advance::PullConfig;
use crate::operators::try_for_with;

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

/// Where one source chunk pushes its entries on a pass of
/// [`Bins::sort`]: its own row of the count matrix, holding per-bin counts
/// on the count pass and per-bin cursors on the fill pass.
struct BinSink<'a, const L: usize> {
    row: &'a mut [usize],
    bin_bits: u32,
    /// The entry lanes on the fill pass; `None` on the count pass.
    lanes: Option<&'a [&'a [AtomicU32]; L]>,
}

impl<const L: usize> BinSink<'_, L> {
    /// Adds one entry; `entry[0]`, its destination, picks the bin.
    #[inline]
    fn emit(&mut self, entry: [u32; L]) {
        let slot = &mut self.row[(entry[0] as usize) >> self.bin_bits];
        if let Some(lanes) = self.lanes {
            // Relaxed: the cursors hand every entry a slot of its own, and
            // the fill loop's join publishes the stores to the flush.
            for (lane, v) in lanes.iter().zip(entry) {
                lane[*slot].store(v, Ordering::Relaxed);
            }
        }
        *slot += 1;
    }
}

/// Entries binned by destination: `L` parallel `u32` lanes (destination
/// first) in bin-major, source-chunk-ascending order. `offsets[b *
/// nchunks + c]` is where source chunk `c`'s entries for bin `b` start,
/// and the last offset is the entry count. Every buffer is pooled.
struct Bins<const L: usize> {
    nbins: usize,
    nchunks: usize,
    bin_bits: u32,
    offsets: Vec<usize>,
    lanes: [Vec<u32>; L],
}

impl<const L: usize> Bins<L> {
    /// The counting sort both operators bin with. `stream(c, sink)` pushes
    /// source chunk `c`'s entries in a fixed order; it runs twice — a count
    /// pass, then, after a prefix over the counts, a fill pass at the
    /// cursors — so every entry lands in a slot of its own. The count
    /// matrix is chunk-major, so each pass hands chunk `c` its row as a
    /// `&mut` window. The chunk loop dispatches on the `n` vertex slots
    /// behind the chunks, under `hooks`; on an error every pooled buffer
    /// goes back to the context.
    fn sort<S>(
        ctx: &Context,
        pool: Option<&ThreadPool>,
        (n, nchunks, bin_bits): (usize, usize, u32),
        hooks: ChunkHooks<'_>,
        stream: S,
    ) -> Result<Self, ExecError>
    where
        S: Fn(usize, &mut BinSink<'_, L>) + Sync,
    {
        let nbins = n.div_ceil(1usize << bin_bits);
        let cells = nbins * nchunks;
        let mut s = ctx.take_scratch();
        let mut counts = s.take_usize();
        let mut bins = Bins {
            nbins,
            nchunks,
            bin_bits,
            offsets: s.take_usize(),
            lanes: std::array::from_fn(|_| s.take_u32()),
        };
        ctx.put_scratch(s);
        counts.resize(cells, 0); // alloc-ok: cold growth, pooled across runs
        bins.offsets.resize(cells + 1, 0); // alloc-ok: cold growth, pooled across runs

        // Chunk `c` streams its entries into its own row of the counts.
        let pass = |counts: &mut [usize], lanes: Option<&[&[AtomicU32]; L]>| {
            try_for_each_chunk_mut(pool, counts, ChunkSplit::Len(nbins), n, hooks, |c, row| {
                stream(
                    c,
                    &mut BinSink {
                        row,
                        bin_bits,
                        lanes,
                    },
                )
            })
        };
        let passes = (|| {
            pass(&mut counts, None)?;
            // Bin-major exclusive scan over the chunk-major counts; each
            // count becomes its cell's fill cursor.
            let mut acc = 0usize;
            for b in 0..nbins {
                for c in 0..nchunks {
                    bins.offsets[b * nchunks + c] = acc;
                    acc += std::mem::replace(&mut counts[c * nbins + b], acc);
                }
            }
            bins.offsets[cells] = acc;
            for lane in &mut bins.lanes {
                lane.resize(acc, 0); // alloc-ok: cold growth, pooled across runs
            }
            let lanes = bins.lanes.each_mut().map(|lane| as_atomic_u32(lane));
            pass(&mut counts, Some(&lanes))
        })();

        let mut s = ctx.take_scratch();
        s.put_usize(counts);
        ctx.put_scratch(s);
        match passes {
            Ok(()) => Ok(bins),
            Err(e) => {
                bins.finish(ctx);
                Err(e)
            }
        }
    }

    /// Number of binned entries.
    fn len(&self) -> usize {
        self.offsets[self.nbins * self.nchunks]
    }

    /// Bin `b`'s entries: one contiguous, source-ascending range.
    fn bin(&self, b: usize) -> Range<usize> {
        self.offsets[b * self.nchunks]..self.offsets[(b + 1) * self.nchunks]
    }

    /// Returns every pooled buffer to the context.
    fn finish(self, ctx: &Context) {
        let mut s = ctx.take_scratch();
        s.put_usize(self.offsets);
        for lane in self.lanes {
            s.put_u32(lane);
        }
        ctx.put_scratch(s);
    }
}

/// A destination-binned edge layout for allocation-free blocked gathers.
///
/// Construction runs a parallel counting sort of every edge `(u, v)` into
/// bin-major, source-chunk-ascending segments of `(dst, src)` entries.
/// Each iteration then calls [`gather`](Self::gather), which never touches
/// the graph again — it streams the fixed layout.
///
/// All buffers come from the context's scratch pools and return there via
/// [`finish`](Self::finish), so a build-gather-finish cycle is
/// allocation-free once the pools are warm.
pub struct BlockedGather {
    n: usize,
    /// Lanes `[dst, src]`.
    bins: Bins<2>,
    /// Per-iteration contribution values, `vals[k] = src_val(src[k])`.
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
        let shape = (n, n.div_ceil(SRC_CHUNK), cfg.clamped_bits());
        let bins = Bins::sort(
            ctx,
            P::IS_PARALLEL.then(|| ctx.pool()),
            shape,
            ChunkHooks::none(),
            |c, sink| {
                for u in c * SRC_CHUNK..((c + 1) * SRC_CHUNK).min(n) {
                    for d in targets(u as VertexId) {
                        sink.emit([d, u as u32]);
                    }
                }
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let mut s = ctx.take_scratch();
        let vals = s.take_f64();
        ctx.put_scratch(s);
        BlockedGather { n, bins, vals }
    }

    /// Number of binned edge entries (the edge count of the adjacency the
    /// layout was built over).
    pub fn num_entries(&self) -> usize {
        self.bins.len()
    }

    /// One blocked gather iteration:
    /// `out[v] = finalize(v, Σ src_val(u) over layout entries (u, v))`.
    ///
    /// Two streaming passes: the *fill* writes `vals[k] =
    /// src_val(src[k])` (each layout segment reads sources from one
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
        let pool = P::IS_PARALLEL.then(|| ctx.pool());
        let m = self.bins.len();
        if self.vals.len() != m {
            self.vals.resize(m, 0.0); // alloc-ok: first iteration only; pooled
        }
        let [dsts, srcs] = &self.bins.lanes;

        // Fill pass: flat, embarrassingly parallel.
        let split = ChunkSplit::Len(SRC_CHUNK);
        try_for_each_chunk_mut(
            pool,
            &mut self.vals,
            split,
            m,
            ChunkHooks::none(),
            |c, vals| {
                for (val, &u) in vals.iter_mut().zip(&srcs[c * SRC_CHUNK..]) {
                    *val = src_val(u as usize);
                }
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));

        // Flush pass: one bin = one disjoint destination window, entries
        // contiguous and source-ascending.
        let bin_size = 1usize << self.bins.bin_bits;
        let (bins, vals) = (&self.bins, &self.vals);
        let split = ChunkSplit::Len(bin_size);
        try_for_each_chunk_mut(pool, out, split, m, ChunkHooks::none(), |b, window| {
            let v_lo = b * bin_size;
            window.fill(0.0);
            for k in bins.bin(b) {
                window[dsts[k] as usize - v_lo] += vals[k];
            }
            for (j, slot) in window.iter_mut().enumerate() {
                *slot = finalize(v_lo + j, *slot);
            }
        })
        .unwrap_or_else(|e| panic!("{e}"));

        if let Some(sink) = ctx.obs() {
            sink.on_advance(&AdvanceEvent {
                kind: OpKind::GatherBlocked,
                policy: P::NAME,
                frontier_in: self.n,
                edges_inspected: m as u64,
                admitted: m as u64,
                output_len: self.n,
                dedup_hits: 0,
                per_worker: &[],
            });
        }
    }

    /// Returns every pooled buffer to the context's scratch pools so the
    /// next layout (or any numeric consumer) reuses the capacity.
    pub fn finish(self, ctx: &Context) {
        self.bins.finish(ctx);
        let mut s = ctx.take_scratch();
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
    let bits = input.bits();
    let words = bits.num_words();

    // Active sources' out-edges as `[dst, src, edge]` entries, chunked by
    // bitmap words. Edge ids advance with the stream position, so they are
    // the CSR numbering on every representation.
    let shape = (n, words.div_ceil(WORD_CHUNK), bcfg.clamped_bits());
    let bins = Bins::sort(
        ctx,
        P::IS_PARALLEL.then(|| ctx.pool()),
        shape,
        ctx.chunk_hooks(),
        |c, sink| {
            let w_hi = ((c + 1) * WORD_CHUNK).min(words);
            bits.for_each_set_in_words(c * WORD_CHUNK, w_hi, &mut |src| {
                for (e, d) in g.out_edges_from(src as VertexId) {
                    sink.emit([d, src as u32, e as u32]);
                }
            });
        },
    )?;
    let m = bins.len();

    // Flush: each bin probes candidates/output within one cache-resident
    // destination window. `output` insertion is a bare atomic bit set, so
    // cross-bin writes need no coordination; the cached count is settled
    // by one `recount` after the flush.
    let output = ctx.take_dense_frontier(n);
    let [dsts, srcs, edges] = &bins.lanes;
    let flushed = try_for_with::<P, _>(ctx, 0..bins.nbins, Schedule::Dynamic(1), m, |_, b| {
        for k in bins.bin(b) {
            let dst = dsts[k];
            if cfg.early_exit && output.contains(dst) {
                continue;
            }
            if !candidates.contains(dst) {
                continue;
            }
            if condition(srcs[k], dst, g.edge_weight(edges[k] as EdgeId)) {
                output.bits().set(dst as usize);
            }
        }
    });
    bins.finish(ctx);
    if let Err(e) = flushed {
        ctx.recycle_dense_frontier(output);
        return Err(e);
    }
    output.recount();

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
