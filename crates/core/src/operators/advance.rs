//! Advance (traversal) operators: frontier expansion along graph edges.
//!
//! [`neighbors_expand`] is the Rust port of the paper's Listing 3 — the
//! push-direction traversal at the heart of Listing 4's SSSP — generic over
//! execution policies exactly as the C++ version is overloaded on them. The
//! bulk-synchronous push runs one hook-checked loop over the frontier on
//! its caller and pushes into a pooled output vector; the asynchronous one
//! drains through the work-queue engine into the context's lock-free
//! per-worker buffers ([`essentials_frontier::WorkerBuffers`]). Either way
//! a steady-state iteration allocates nothing and takes no lock.
//! [`neighbors_expand_unique`]
//! fuses duplicate elimination into the push via a reusable atomic bitmap.
//! [`try_expand_pull_counted`] / [`try_expand_pull_masked`] are the
//! CSC-based pull direction of §III-C, and [`try_expand_push_dense`] emits a
//! bitmap frontier so the direction engine can switch representations
//! mid-run. Every kernel is fallible — chunk hooks, panic capture, pooled
//! storage restored on error — and the infallible forms panic on the error.
//!
//! Every expansion here is written once against the adjacency *stream*
//! traits ([`OutWeights`] / [`InWeights`]): raw CSR walks slices, compressed
//! CSR streams [`essentials_graph::NeighborDecoder`]s, and both show a
//! side-effectful condition exactly the same `(src, dst, e, w)` tuples in
//! the same ascending order — `tests/differential.rs` pins the results
//! bit-identical across representations.

use std::cell::RefCell;

use essentials_frontier::{DenseFrontier, SparseFrontier};
use essentials_graph::{EdgeId, EdgeValue, InWeights, OutAdjacency, OutWeights, VertexId};
use essentials_obs::{AdvanceEvent, OpKind};
use essentials_parallel::atomics::Counter;
use essentials_parallel::{
    try_run_async, try_sequential_for_with, ChunkHooks, ExecError, ExecutionPolicy, Schedule,
};

use crate::context::Context;
use crate::operators::try_for_with;
use crate::scratch::AdvanceScratch;

/// Vertices per hook-checked chunk of the push loop on the calling thread
/// (every policy but `ParNosync`), at every thread count. Small
/// enough that cancellation latency stays low, large enough that the hook
/// check amortizes to noise.
const SERIAL_CHUNK: usize = 256;

/// Sum of out-degrees over a frontier — the edges a push expansion
/// inspects. Only evaluated when a sink wants operator detail.
fn frontier_out_edges<G: OutAdjacency>(g: &G, f: &SparseFrontier) -> u64 {
    f.iter().map(|v| g.out_degree(v) as u64).sum()
}

/// Push-direction neighbor expansion (paper Listing 3).
///
/// For every active vertex `v` and out-edge `e = (v, n)` with weight `w`,
/// evaluates `condition(v, n, e, w)`; destinations for which it returns
/// `true` enter the output frontier. Duplicates are possible (one per
/// admitting edge), as in the paper — filter/uniquify afterwards if set
/// semantics are needed.
///
/// Policy behavior:
/// * `Seq` and `Par` — one loop on the calling thread over 256-vertex
///   frontier slices, output in edge order (a pooled push has not paid on
///   the measured workloads: EXPERIMENTS.md, "One push loop"); under `Par`
///   the dedup bits of [`neighbors_expand_unique`] are cleared on the pool;
/// * `ParNosync` — the frontier is drained through the asynchronous
///   work-queue engine (no per-chunk barriers; completion by quiescence).
///
/// ```
/// use essentials_core::prelude::*;
///
/// let g: Graph<f32> = GraphBuilder::new(3)
///     .edges([(0, 1, 1.0), (0, 2, 9.0)])
///     .build();
/// let ctx = Context::new(2);
/// let f = SparseFrontier::single(0);
/// // Expand only along edges lighter than 5.0 — identical under any policy.
/// let out = neighbors_expand(execution::par, &ctx, &g, &f, |_s, _d, _e, w| w < 5.0);
/// assert_eq!(out.as_slice(), &[1]);
/// ```
pub fn neighbors_expand<P, G, W, F>(
    policy: P,
    ctx: &Context,
    g: &G,
    f: &SparseFrontier,
    condition: F,
) -> SparseFrontier
where
    P: ExecutionPolicy,
    G: OutWeights<W> + Sync,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, EdgeId, W) -> bool + Sync,
{
    let _ = policy;
    expand_impl::<P, _, _, _, false>(ctx, g, f, condition)
}

/// [`neighbors_expand`] with fused deduplication: each destination enters
/// the output at most once per call, recorded in a reusable atomic bitmap
/// that is test-and-set during the push itself. Equivalent to
/// `neighbors_expand` followed by
/// [`uniquify`](crate::operators::filter::uniquify) up to output order, but
/// without the post-hoc sort-or-bitmap pass — the dedup costs one atomic
/// `fetch_or` per admitted edge, and the bitmap is swept clean afterwards in
/// O(|output|) by walking the output, so the hot loop of BFS/SSSP/CC never
/// re-zeroes O(n) memory.
///
/// The condition is still evaluated for **every** edge — only output
/// insertion is gated. Conditions with side effects (SSSP's distance
/// relaxation, CC's label min) therefore see exactly the edges
/// `neighbors_expand` shows them.
pub fn neighbors_expand_unique<P, G, W, F>(
    policy: P,
    ctx: &Context,
    g: &G,
    f: &SparseFrontier,
    condition: F,
) -> SparseFrontier
where
    P: ExecutionPolicy,
    G: OutWeights<W> + Sync,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, EdgeId, W) -> bool + Sync,
{
    let _ = policy;
    expand_impl::<P, _, _, _, true>(ctx, g, f, condition)
}

/// Fallible [`neighbors_expand`]: checks the context's
/// [`RunBudget`](essentials_parallel::RunBudget) and fault plan at chunk
/// boundaries and captures panics in `condition` as
/// [`ExecError::WorkerPanic`]. On any error the context's scratch
/// invariants are fully restored — buffers drained, dedup bits cleared,
/// output storage returned to the pool — so the same context runs the next
/// algorithm unaffected.
pub fn try_neighbors_expand<P, G, W, F>(
    policy: P,
    ctx: &Context,
    g: &G,
    f: &SparseFrontier,
    condition: F,
) -> Result<SparseFrontier, ExecError>
where
    P: ExecutionPolicy,
    G: OutWeights<W> + Sync,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, EdgeId, W) -> bool + Sync,
{
    let _ = policy;
    try_expand_impl::<P, _, _, _, false>(ctx, g, f, condition)
}

/// Fallible [`neighbors_expand_unique`] — see [`try_neighbors_expand`] for
/// the error contract; the dedup bitmap is additionally guaranteed clear
/// after an error (partial admissions are swept by walking the drained
/// partial output).
pub fn try_neighbors_expand_unique<P, G, W, F>(
    policy: P,
    ctx: &Context,
    g: &G,
    f: &SparseFrontier,
    condition: F,
) -> Result<SparseFrontier, ExecError>
where
    P: ExecutionPolicy,
    G: OutWeights<W> + Sync,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, EdgeId, W) -> bool + Sync,
{
    let _ = policy;
    try_expand_impl::<P, _, _, _, true>(ctx, g, f, condition)
}

/// Infallible body of [`neighbors_expand`] / [`neighbors_expand_unique`]:
/// the fallible core with the error re-raised as a panic on the caller.
fn expand_impl<P, G, W, F, const UNIQUE: bool>(
    ctx: &Context,
    g: &G,
    f: &SparseFrontier,
    condition: F,
) -> SparseFrontier
where
    P: ExecutionPolicy,
    G: OutWeights<W> + Sync,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, EdgeId, W) -> bool + Sync,
{
    match try_expand_impl::<P, _, _, _, UNIQUE>(ctx, g, f, condition) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Shared fallible body of the push expansions.
///
/// All transient memory — per-worker output buffers, the dedup bitmap,
/// and the output vector itself — is checked out of the context's
/// [`AdvanceScratch`], so steady-state calls perform no heap
/// allocation and acquire no shared lock on the push path.
///
/// On *any* error — a captured panic in `condition`, a budget stop, or an
/// injected fault — the scratch invariants are restored before the error
/// returns: worker buffers are drained and discarded, every dedup bit set
/// by the partial expansion is cleared, the output vector goes back to the
/// pool, and the scratch is returned to the context. The context is fully
/// reusable afterwards (`tests/resilience.rs` proves it bit-for-bit).
fn try_expand_impl<P, G, W, F, const UNIQUE: bool>(
    ctx: &Context,
    g: &G,
    f: &SparseFrontier,
    condition: F,
) -> Result<SparseFrontier, ExecError>
where
    P: ExecutionPolicy,
    G: OutWeights<W> + Sync,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, EdgeId, W) -> bool + Sync,
{
    let mut scratch = ctx.take_scratch();
    if UNIQUE {
        scratch.ensure_seen(g.num_vertices());
    }

    // Per-edge admission counting is gated on a sink actually wanting it
    // (`NullSink` declines), so the residual cost of the instrumentation on
    // an uninstrumented or null-sink context is one predicted branch.
    let detail = ctx.obs_wants_detail();
    let admitted = Counter::new();
    let condition = |v: VertexId, n: VertexId, e: EdgeId, w: W| {
        let ok = condition(v, n, e, w);
        if detail && ok {
            admitted.add(1); // rmw-ok: runs only when a sink asks for per-edge detail
        }
        ok
    };
    let emit = |ctx: &Context, frontier_in: usize, output_len: usize, per_worker: &[usize]| {
        if let Some(sink) = ctx.obs() {
            let adm = admitted.get() as u64;
            sink.on_advance(&AdvanceEvent {
                kind: if UNIQUE {
                    OpKind::AdvanceUnique
                } else {
                    OpKind::Advance
                },
                policy: P::NAME,
                frontier_in,
                edges_inspected: if detail { frontier_out_edges(g, f) } else { 0 },
                admitted: adm,
                output_len,
                dedup_hits: if UNIQUE && detail {
                    adm.saturating_sub(output_len as u64)
                } else {
                    0
                },
                per_worker,
            });
        }
    };

    let threads = ctx.num_threads();
    let hooks = ctx.chunk_hooks();
    let (mut out, result, per_worker) = if P::IS_SYNCHRONIZED || threads == 1 {
        // Seq, and Par at every thread count: one hook-checked loop over
        // 256-vertex frontier slices on the calling thread, pushing into
        // the pooled output vector in edge order.
        let out = RefCell::new(scratch.take_vec());
        let verts = f.as_slice();
        let seen = &scratch.seen;
        let run = try_sequential_for_with(
            0..verts.len(),
            Schedule::Dynamic(SERIAL_CHUNK),
            hooks,
            |_, i| {
                let v = verts[i];
                let mut out = out.borrow_mut();
                for (e, n) in g.out_edges_from(v) {
                    let w = g.edge_weight(e);
                    // The condition runs for every edge even when the
                    // destination is already marked; the bitmap only gates
                    // output insertion.
                    if condition(v, n, e, w) && (!UNIQUE || seen.set(n as usize)) {
                        out.push(n); // alloc-ok: pooled output vec, capacity retained across iterations
                    }
                }
            },
        );
        (out.into_inner(), run, Vec::new()) // alloc-ok: Vec::new never allocates
    } else {
        let run = {
            let AdvanceScratch { buffers, seen, .. } = &mut *scratch;
            buffers.ensure_workers(threads);
            let seen = &*seen;
            let view = buffers.view();
            // Asynchronous: vertices drain through the work-queue engine;
            // no barrier other than final quiescence. The seed vec makes
            // this the dynamic-scheduling comparison path, not the BSP hot
            // loop.
            let seeds: Vec<VertexId> = f.iter().collect(); // alloc-ok: async seed vec
            try_run_async(ctx.pool(), seeds, hooks, |v: VertexId, pusher| {
                for (e, n) in g.out_edges_from(v) {
                    let w = g.edge_weight(e);
                    if condition(v, n, e, w) && (!UNIQUE || seen.set(n as usize)) {
                        // SAFETY: `pusher.worker()` is the engine worker's
                        // own stable id — one thread per worker id.
                        unsafe { view.push(pusher.worker(), n) }; // alloc-ok: worker buffer keeps its capacity across iterations
                    }
                }
            })
            .map(|_| ())
        };
        // Per-worker push distribution, read between the region and the
        // drain (which empties the slots). Allocates only when a sink asked
        // for detail.
        let per_worker = if run.is_ok() && detail && ctx.obs().is_some() {
            scratch.buffers.slot_lens()
        } else {
            Vec::new() // alloc-ok: Vec::new never allocates; detail collection is gated above
        };
        let mut out = scratch.take_vec();
        scratch.buffers.drain_into(&mut out);
        (out, run, per_worker)
    };

    // Bitmap restore runs on the error path too: a dedup bit is only ever
    // set right before its vertex is pushed (the `&&` short-circuits before
    // `seen.set` on a panicking condition), so walking the partial output
    // clears exactly the bits the expansion set, without re-zeroing all n.
    if UNIQUE {
        let seen = &scratch.seen;
        if !P::IS_PARALLEL || threads == 1 {
            for &v in &out {
                seen.clear(v as usize);
            }
        } else {
            let out_ref: &[VertexId] = &out;
            ctx.pool()
                .parallel_for(0..out_ref.len(), Schedule::Static, |i| {
                    seen.clear(out_ref[i] as usize);
                });
        }
    }
    match result {
        Ok(()) => {
            emit(ctx, f.len(), out.len(), &per_worker);
            ctx.put_scratch(scratch);
            Ok(SparseFrontier::from_vec(out))
        }
        Err(e) => {
            out.clear();
            scratch.put_vec(out);
            ctx.put_scratch(scratch);
            Err(e)
        }
    }
}

/// Parallel index-to-frontier collection behind
/// [`filter`](crate::operators::filter::filter): `keep(i)` runs for every
/// `i` in `0..len` and each `Some(v)` is pushed into the context's
/// [`AdvanceScratch`] worker buffers, then drained into
/// a pooled output vector in worker-id order — the same checkout pattern as
/// [`try_expand_impl`], so calls take no lock and reuse buffer capacity
/// (a drained buffer is reserved to the whole output, so a worker's
/// shifting share grows it only past the largest output yet). On an error
/// the buffers are drained and discarded and the scratch goes back to the
/// context, which stays fully reusable.
pub(crate) fn try_collect_indexed<F>(
    ctx: &Context,
    len: usize,
    hooks: ChunkHooks<'_>,
    keep: F,
) -> Result<SparseFrontier, ExecError>
where
    F: Fn(usize) -> Option<VertexId> + Sync,
{
    let mut scratch = ctx.take_scratch();
    let result = {
        let buffers = &mut scratch.buffers;
        buffers.ensure_workers(ctx.num_threads());
        let view = buffers.view();
        ctx.pool()
            .try_parallel_for_with(0..len, Schedule::Dynamic(256), hooks, |tid, i| {
                if let Some(v) = keep(i) {
                    // SAFETY: `tid` is this worker's own id; the pool runs
                    // each worker id on exactly one thread per region.
                    unsafe { view.push(tid, v) }; // alloc-ok: worker buffer keeps its capacity across calls
                }
            })
    };
    let mut out = scratch.take_vec();
    scratch.buffers.drain_into(&mut out);
    match result {
        Ok(()) => {
            ctx.put_scratch(scratch);
            Ok(SparseFrontier::from_vec(out))
        }
        Err(e) => {
            out.clear();
            scratch.put_vec(out);
            ctx.put_scratch(scratch);
            Err(e)
        }
    }
}

/// Push expansion into a **dense** output frontier. Insertion is atomic and
/// idempotent, so no uniquify pass is ever needed; the natural output
/// representation when the next frontier is expected to be large.
///
/// Fallible like [`try_neighbors_expand`]: hooks at chunk boundaries
/// (every 256 frontier vertices, on the calling thread under every policy),
/// a panicking condition captured as [`ExecError::WorkerPanic`], and on any
/// error the output bitmap goes back to the context's pool.
pub fn try_expand_push_dense<P, G, W, F>(
    _policy: P,
    ctx: &Context,
    g: &G,
    f: &SparseFrontier,
    condition: F,
) -> Result<DenseFrontier, ExecError>
where
    P: ExecutionPolicy,
    G: OutWeights<W> + Sync,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, EdgeId, W) -> bool + Sync,
{
    // Recycled through the context's dense pool: steady-state dense-push
    // iterations reuse a parked bitmap (cleared in word stores) instead of
    // allocating O(n/64) words per call.
    let output = ctx.take_dense_frontier(g.num_vertices());
    let detail = ctx.obs_wants_detail();
    let admitted = Counter::new();
    // Admissions set the output bit only; the cached count is settled by
    // one `recount` after the kernel, so no counter is shared per vertex.
    let body = |v: VertexId, n: VertexId, e: EdgeId| {
        let w = g.edge_weight(e);
        if condition(v, n, e, w) {
            if detail {
                admitted.add(1); // rmw-ok: runs only when a sink asks for per-edge detail
            }
            output.bits().set(n as usize);
        }
    };
    let verts = f.as_slice();
    let run = try_sequential_for_with(
        0..verts.len(),
        Schedule::Dynamic(SERIAL_CHUNK),
        ctx.chunk_hooks(),
        |_, i| {
            for (e, n) in g.out_edges_from(verts[i]) {
                body(verts[i], n, e);
            }
        },
    );
    output.recount();
    if let Err(e) = run {
        ctx.recycle_dense_frontier(output);
        return Err(e);
    }
    if let Some(sink) = ctx.obs() {
        sink.on_advance(&AdvanceEvent {
            kind: OpKind::AdvanceDense,
            policy: P::NAME,
            frontier_in: f.len(),
            edges_inspected: if detail { frontier_out_edges(g, f) } else { 0 },
            admitted: admitted.get() as u64,
            output_len: output.len(),
            dedup_hits: 0,
            per_worker: &[],
        });
    }
    Ok(output)
}

/// Configuration of a pull-direction expansion.
#[derive(Default)]
pub struct PullConfig {
    /// Stop scanning a destination's in-neighbors after the first admitting
    /// edge (correct for reachability-style conditions like BFS; wrong for
    /// conditions that must see every edge, like SSSP relaxation).
    pub early_exit: bool,
}

/// One destination's share of a pull expansion: streams `dst`'s in-edges in
/// ascending source order, admits `dst` if an active source's condition
/// holds (stopping at the first under `early_exit`), and returns the
/// in-edges scanned. The admission sets the output bit once and leaves the
/// cached count to [`DenseFrontier::recount`] after the region, so no
/// counter is shared per destination.
#[inline]
fn scan_in_edges<G, W, F>(
    g: &G,
    input: &DenseFrontier,
    output: &DenseFrontier,
    cfg: &PullConfig,
    condition: &F,
    dst: VertexId,
) -> usize
where
    G: InWeights<W>,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, W) -> bool,
{
    let (mut scans, mut admitted) = (0usize, false);
    for (e, src) in g.in_edges_from(dst) {
        scans += 1;
        if input.contains(src) && condition(src, dst, g.in_edge_weight(e)) {
            admitted = true;
            if cfg.early_exit {
                break;
            }
        }
    }
    if admitted {
        output.bits().set(dst as usize);
    }
    scans
}

/// The region both pull expansions share: runs `scan(output, i)` — the
/// in-edges scanned for work item `i` — over `range` in `Dynamic(grain)`
/// chunks, on the pool when the `work` behind the range (candidate vertex
/// slots) pays for a region, folding the counts through the scratch's
/// per-worker tallies and settling the output's cached count once the
/// region has joined. On success emits the [`OpKind::Pull`] event and
/// hands back the output with its scan count; on an error the output
/// bitmap goes back to the context's pool instead.
fn try_pull_region<P, S>(
    ctx: &Context,
    input: &DenseFrontier,
    output: DenseFrontier,
    range: std::ops::Range<usize>,
    grain: usize,
    work: usize,
    scan: S,
) -> Result<(DenseFrontier, usize), ExecError>
where
    P: ExecutionPolicy,
    S: Fn(&DenseFrontier, usize) -> usize + Sync,
{
    let mut scratch = ctx.take_scratch();
    scratch.tallies.reset(ctx.num_threads());
    let tallies = &scratch.tallies;
    let run = try_for_with::<P, _>(ctx, range, Schedule::Dynamic(grain), work, |tid, i| {
        tallies.tally(tid, scan(&output, i));
    });
    let scanned = scratch.tallies.total();
    ctx.put_scratch(scratch);
    output.recount();
    if let Err(e) = run {
        ctx.recycle_dense_frontier(output);
        return Err(e);
    }
    if let Some(sink) = ctx.obs() {
        let out_len = output.len();
        sink.on_advance(&AdvanceEvent {
            kind: OpKind::Pull,
            policy: P::NAME,
            frontier_in: input.len(),
            edges_inspected: scanned as u64,
            // Each output vertex was admitted by at least one scanned edge;
            // the scan is the honest work measure, so per-edge admission is
            // not separately counted here.
            admitted: out_len as u64,
            output_len: out_len,
            dedup_hits: 0,
            per_worker: &[],
        });
    }
    Ok((output, scanned))
}

/// Pull-direction expansion (§III-C): every *candidate* destination scans
/// its **in**-neighbors for active sources instead of active sources
/// scattering to destinations.
///
/// For each vertex `dst` with `candidate(dst)` true, and each in-edge
/// `(src → dst)` with weight `w` where `input.contains(src)`, evaluates
/// `condition(src, dst, w)`; if it returns `true`, `dst` enters the output
/// frontier (and with `early_exit` the scan of `dst` stops).
///
/// Requires the in-adjacency (`Graph::with_csc()`, or a compressed graph
/// built from one); membership tests against the input are O(1) because the
/// input is dense — this is why direction-optimizing traversal switches
/// representation when it switches direction.
///
/// Returns the output frontier and the number of in-edges scanned — the
/// honest work measure for push-vs-pull comparisons (a pull iteration's
/// cost is the scan, not just the admitting edges). Hooks fire every 256
/// destinations; on an error the output bitmap goes back to the pool.
pub fn try_expand_pull_counted<P, G, W, C, F>(
    _policy: P,
    ctx: &Context,
    g: &G,
    input: &DenseFrontier,
    cfg: PullConfig,
    candidate: C,
    condition: F,
) -> Result<(DenseFrontier, usize), ExecError>
where
    P: ExecutionPolicy,
    G: InWeights<W> + Sync,
    W: EdgeValue,
    C: Fn(VertexId) -> bool + Sync,
    F: Fn(VertexId, VertexId, W) -> bool + Sync,
{
    let n = g.num_vertices();
    // Recycled bitmap, same contract as `try_expand_push_dense`.
    let output = ctx.take_dense_frontier(n);
    try_pull_region::<P, _>(ctx, input, output, 0..n, 256, n, |output, i| {
        let dst = i as VertexId;
        if candidate(dst) {
            scan_in_edges(g, input, output, &cfg, &condition, dst)
        } else {
            0
        }
    })
}

/// [`try_expand_pull_counted`] with the error re-raised as a panic (the
/// frozen benchmark's `core.pull_ns_per_edge` probe calls this form).
pub fn expand_pull_counted<P, G, W, C, F>(
    policy: P,
    ctx: &Context,
    g: &G,
    input: &DenseFrontier,
    cfg: PullConfig,
    candidate: C,
    condition: F,
) -> (DenseFrontier, usize)
where
    P: ExecutionPolicy,
    G: InWeights<W> + Sync,
    W: EdgeValue,
    C: Fn(VertexId) -> bool + Sync,
    F: Fn(VertexId, VertexId, W) -> bool + Sync,
{
    try_expand_pull_counted(policy, ctx, g, input, cfg, candidate, condition)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Masked pull: [`try_expand_pull_counted`] where the candidate set is a
/// **bitmap**, iterated word-parallel, instead of a predicate probed for all
/// `n` destinations.
///
/// `candidates` holds the vertices that could still be admitted (for BFS:
/// the unvisited set). The scan decodes only its set words — all-zero words
/// cost one load per 64 vertices, and settled destinations are never
/// touched. The caller keeps the mask current between iterations with
/// [`DenseFrontier::and_not`]`(output)`, retiring this iteration's
/// admissions 64 at a time; that maintenance is how the unvisited mass
/// shrinks as the traversal settles, turning late pull iterations from
/// O(n + in-edges) full scans into O(remaining candidates).
///
/// Returns the output frontier (recycled through the context's dense pool)
/// and the number of in-edges scanned. Hooks fire every 4 mask words (256
/// candidate slots); on an error the output bitmap goes back to the pool.
pub fn try_expand_pull_masked<P, G, W, F>(
    _policy: P,
    ctx: &Context,
    g: &G,
    input: &DenseFrontier,
    candidates: &DenseFrontier,
    cfg: PullConfig,
    condition: F,
) -> Result<(DenseFrontier, usize), ExecError>
where
    P: ExecutionPolicy,
    G: InWeights<W> + Sync,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, W) -> bool + Sync,
{
    let n = g.num_vertices();
    debug_assert_eq!(candidates.capacity(), n);
    let output = ctx.take_dense_frontier(n);
    let mask = candidates.bits();
    // Workers take disjoint *word* ranges of the mask and decode their own
    // chunks — the parallel form of the word-at-a-time scan. 4 words per
    // grab = 256 candidate slots, small enough to balance skewed in-degree,
    // large enough to amortize the queue. The work stated for the dispatch
    // rule is the 64 candidate slots behind each word.
    let words = mask.num_words();
    try_pull_region::<P, _>(ctx, input, output, 0..words, 4, words * 64, |output, wi| {
        let mut scans = 0usize;
        mask.for_each_set_in_words(wi, wi + 1, &mut |i| {
            scans += scan_in_edges(g, input, output, &cfg, &condition, i as VertexId);
        });
        scans
    })
}

/// [`try_expand_pull_masked`] with the error re-raised as a panic (the
/// frozen benchmark's `core.pull_masked_ns_per_edge` probe calls this form).
pub fn expand_pull_masked<P, G, W, F>(
    policy: P,
    ctx: &Context,
    g: &G,
    input: &DenseFrontier,
    candidates: &DenseFrontier,
    cfg: PullConfig,
    condition: F,
) -> (DenseFrontier, usize)
where
    P: ExecutionPolicy,
    G: InWeights<W> + Sync,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, W) -> bool + Sync,
{
    try_expand_pull_masked(policy, ctx, g, input, candidates, cfg, condition)
        .unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_graph::{CompressedGraph, Coo, Graph, GraphBase, GraphBuilder};
    use essentials_parallel::{execution, ThreadPool};

    fn weighted_diamond() -> Graph<f32> {
        Graph::from_coo(&Coo::from_edges(
            4,
            [(0, 1, 1.0), (0, 2, 4.0), (1, 3, 2.0), (2, 3, 1.0)],
        ))
        .with_csc()
    }

    #[test]
    fn push_expand_finds_all_admitted_destinations() {
        let g = weighted_diamond();
        let ctx = Context::new(2);
        let f = SparseFrontier::single(0);
        let mut out = neighbors_expand(execution::seq, &ctx, &g, &f, |_, _, _, _| true);
        out.uniquify();
        assert_eq!(out.as_slice(), &[1, 2]);
    }

    #[test]
    fn condition_filters_edges() {
        let g = weighted_diamond();
        let ctx = Context::new(2);
        let f = SparseFrontier::single(0);
        let out = neighbors_expand(execution::seq, &ctx, &g, &f, |_, _, _, w| w < 2.0);
        assert_eq!(out.as_slice(), &[1]);
    }

    #[test]
    fn policy_equivalence_across_all_three_policies() {
        let g = weighted_diamond();
        let ctx = Context::new(4);
        let f = SparseFrontier::from_vec(vec![0, 1, 2]);
        let run = |frontier: SparseFrontier| {
            let mut a = neighbors_expand(execution::seq, &ctx, &g, &frontier, |_, _, _, _| true);
            let mut b = neighbors_expand(execution::par, &ctx, &g, &frontier, |_, _, _, _| true);
            let mut c =
                neighbors_expand(execution::par_nosync, &ctx, &g, &frontier, |_, _, _, _| {
                    true
                });
            for f in [&mut a, &mut b, &mut c] {
                f.uniquify();
            }
            assert_eq!(a, b);
            assert_eq!(a, c);
            a
        };
        let out = run(f);
        assert_eq!(out.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn unique_expand_matches_expand_plus_uniquify() {
        let g = weighted_diamond();
        let ctx = Context::new(4);
        // 1 and 2 both point at 3 — plain expand emits 3 twice.
        let f = SparseFrontier::from_vec(vec![0, 1, 2]);
        let mut plain = neighbors_expand(execution::par, &ctx, &g, &f, |_, _, _, _| true);
        plain.uniquify();
        for mut unique in [
            neighbors_expand_unique(execution::seq, &ctx, &g, &f, |_, _, _, _| true),
            neighbors_expand_unique(execution::par, &ctx, &g, &f, |_, _, _, _| true),
            neighbors_expand_unique(execution::par_nosync, &ctx, &g, &f, |_, _, _, _| true),
        ] {
            unique.uniquify(); // sorts; already duplicate-free
            assert_eq!(unique, plain);
        }
    }

    #[test]
    fn unique_expand_still_evaluates_condition_per_edge() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = weighted_diamond();
        let ctx = Context::new(2);
        let f = SparseFrontier::from_vec(vec![0, 1, 2]);
        for policy_calls in [
            {
                let calls = AtomicUsize::new(0);
                neighbors_expand_unique(execution::seq, &ctx, &g, &f, |_, _, _, _| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    true
                });
                calls.into_inner()
            },
            {
                let calls = AtomicUsize::new(0);
                neighbors_expand_unique(execution::par, &ctx, &g, &f, |_, _, _, _| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    true
                });
                calls.into_inner()
            },
        ] {
            // Every out-edge of 0, 1, 2 — four edges — despite 3 being
            // emitted only once.
            assert_eq!(policy_calls, 4);
        }
    }

    #[test]
    fn unique_expand_bitmap_is_clean_across_calls() {
        let g = weighted_diamond();
        let ctx = Context::new(2);
        let f = SparseFrontier::from_vec(vec![1, 2]);
        // If bits leaked between calls, the second call would emit nothing.
        for _ in 0..3 {
            let out = neighbors_expand_unique(execution::par, &ctx, &g, &f, |_, _, _, _| true);
            assert_eq!(out.as_slice(), &[3]);
        }
    }

    #[test]
    fn dense_output_collapses_duplicates() {
        let g = weighted_diamond();
        let ctx = Context::new(2);
        // 1 and 2 both point at 3.
        let f = SparseFrontier::from_vec(vec![1, 2]);
        let out = try_expand_push_dense(execution::par, &ctx, &g, &f, |_, _, _, _| true).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(3));
    }

    #[test]
    fn pull_matches_push_on_the_same_frontier() {
        let g = weighted_diamond();
        let ctx = Context::new(2);
        let sparse = SparseFrontier::from_vec(vec![0]);
        let dense_in = essentials_frontier::convert::sparse_to_dense(&sparse, g.num_vertices());

        let mut push = neighbors_expand(execution::seq, &ctx, &g, &sparse, |_, _, _, _| true);
        push.uniquify();
        let pull = expand_pull_counted(
            execution::par,
            &ctx,
            &g,
            &dense_in,
            PullConfig::default(),
            |_| true,
            |_, _, _| true,
        )
        .0;
        let pull_sparse = essentials_frontier::convert::dense_to_sparse(&pull);
        assert_eq!(push, pull_sparse);
    }

    #[test]
    fn pull_early_exit_still_finds_the_set() {
        let g = weighted_diamond();
        let ctx = Context::new(2);
        let sparse = SparseFrontier::from_vec(vec![1, 2]);
        let dense_in = essentials_frontier::convert::sparse_to_dense(&sparse, g.num_vertices());
        let pull = expand_pull_counted(
            execution::seq,
            &ctx,
            &g,
            &dense_in,
            PullConfig { early_exit: true },
            |_| true,
            |_, _, _| true,
        )
        .0;
        assert_eq!(pull.len(), 1);
        assert!(pull.contains(3));
    }

    #[test]
    fn candidate_prunes_pull_scan() {
        let g = weighted_diamond();
        let ctx = Context::new(2);
        let dense_in = DenseFrontier::new(4);
        dense_in.insert(0);
        let pull = expand_pull_counted(
            execution::seq,
            &ctx,
            &g,
            &dense_in,
            PullConfig::default(),
            |dst| dst != 1, // pretend 1 is already visited
            |_, _, _| true,
        )
        .0;
        assert_eq!(pull.len(), 1);
        assert!(pull.contains(2));
    }

    #[test]
    fn masked_pull_matches_predicate_pull() {
        let g = weighted_diamond();
        let ctx = Context::new(2);
        let dense_in = DenseFrontier::new(4);
        dense_in.insert(0);
        // Mask = {0, 2, 3}: vertex 1 is settled and must never be scanned.
        let mask = DenseFrontier::new(4);
        for v in [0, 2, 3] {
            mask.insert(v);
        }
        for (pull, _) in [
            expand_pull_masked(
                execution::seq,
                &ctx,
                &g,
                &dense_in,
                &mask,
                PullConfig::default(),
                |_, _, _| true,
            ),
            expand_pull_masked(
                execution::par,
                &ctx,
                &g,
                &dense_in,
                &mask,
                PullConfig::default(),
                |_, _, _| true,
            ),
        ] {
            let reference = expand_pull_counted(
                execution::seq,
                &ctx,
                &g,
                &dense_in,
                PullConfig::default(),
                |dst| mask.contains(dst),
                |_, _, _| true,
            )
            .0;
            assert_eq!(
                essentials_frontier::convert::dense_to_sparse(&pull),
                essentials_frontier::convert::dense_to_sparse(&reference)
            );
        }
    }

    #[test]
    fn masked_pull_counts_only_masked_scans() {
        let g = weighted_diamond();
        let ctx = Context::new(2);
        let dense_in = DenseFrontier::new(4);
        dense_in.insert(1);
        dense_in.insert(2);
        let mask = DenseFrontier::new(4);
        mask.insert(3); // only 3's in-edges (from 1 and 2) may be scanned
        let (out, scanned) = expand_pull_masked(
            execution::seq,
            &ctx,
            &g,
            &dense_in,
            &mask,
            PullConfig::default(),
            |_, _, _| true,
        );
        assert_eq!(scanned, 2);
        assert!(out.contains(3));
    }

    #[test]
    fn dense_outputs_recycle_through_the_context() {
        let g = weighted_diamond();
        let ctx = Context::new(1);
        let f = SparseFrontier::single(0);
        let out = try_expand_push_dense(execution::seq, &ctx, &g, &f, |_, _, _, _| true).unwrap();
        let addr = out.bits().words().as_ptr();
        ctx.recycle_dense_frontier(out);
        // Next dense expansion over the same universe reuses the bitmap.
        let out2 = try_expand_push_dense(execution::seq, &ctx, &g, &f, |_, _, _, _| true).unwrap();
        assert_eq!(out2.bits().words().as_ptr(), addr);
        assert_eq!(out2.len(), 2);
    }

    /// A 450-edge hub row (longer than one decoder refill run), a ring
    /// with chords out of the even vertices (so odd rows are empty), and
    /// position-dependent weights.
    fn hub_and_ring(n: usize) -> Graph<f32> {
        let n32 = n as VertexId;
        let mut b = GraphBuilder::new(n);
        for d in 0..450 {
            b = b.edge(3, (d * 2 + 5) % n32, (d % 11) as f32 * 0.5);
        }
        for v in (0..n32).step_by(2) {
            b = b.edge(v, (v + 1) % n32, (v % 7) as f32 + 0.5);
            b = b.edge(v, (v * 7 + 3) % n32, (v % 3) as f32 + 1.0);
        }
        b.deduplicate().with_csc().build()
    }

    fn sorted(mut v: Vec<VertexId>) -> Vec<VertexId> {
        v.sort_unstable();
        v
    }

    /// One run of every expansion over `g`, reduced to comparable values:
    /// sorted output sets (duplicates kept where the operator emits them)
    /// and pull scan counts. The conditions read source, destination, edge
    /// id and weight, so a mismatched edge id or weight changes a set.
    fn every_expansion<G>(ctx: &Context, g: &G) -> (Vec<Vec<VertexId>>, Vec<usize>)
    where
        G: OutWeights<f32> + InWeights<f32> + Sync,
    {
        let n = g.num_vertices();
        let par = execution::par;
        let f: SparseFrontier = (0..n as VertexId).filter(|v| v % 4 != 2).collect();
        let by_ends =
            |s: VertexId, d: VertexId, _e: EdgeId, w: f32| !(s + d).is_multiple_of(3) && w < 6.0;
        let by_edge = |_s: VertexId, _d: VertexId, e: EdgeId, w: f32| {
            e.is_multiple_of(2) ^ (w as usize).is_multiple_of(2)
        };
        let input = DenseFrontier::new(n);
        let candidates = DenseFrontier::new(n);
        for v in 0..n as VertexId {
            if v % 3 == 0 {
                input.insert(v);
            }
            if v % 2 == 1 {
                candidates.insert(v);
            }
        }
        let pull_cond = |s: VertexId, d: VertexId, w: f32| !(s + d).is_multiple_of(5) && w < 4.0;
        let all_edges = || PullConfig { early_exit: false };
        let (masked, masked_scans) =
            expand_pull_masked(par, ctx, g, &input, &candidates, all_edges(), pull_cond);
        let (counted, counted_scans) = expand_pull_counted(
            par,
            ctx,
            g,
            &input,
            all_edges(),
            |d| candidates.contains(d),
            pull_cond,
        );
        let sets = vec![
            sorted(neighbors_expand(par, ctx, g, &f, by_ends).into_vec()),
            sorted(neighbors_expand(par, ctx, g, &f, by_edge).into_vec()),
            sorted(neighbors_expand_unique(par, ctx, g, &f, by_ends).into_vec()),
            sorted(
                try_expand_push_dense(par, ctx, g, &f, by_edge)
                    .unwrap()
                    .iter()
                    .collect(),
            ),
            sorted(masked.iter().collect()),
            sorted(counted.iter().collect()),
            neighbors_expand(par, ctx, g, &SparseFrontier::new(), by_ends).into_vec(),
        ];
        (sets, vec![masked_scans, counted_scans])
    }

    #[test]
    fn compressed_adjacency_expands_exactly_like_raw() {
        let g = hub_and_ring(700);
        let cg = CompressedGraph::from_graph(&ThreadPool::new(2), &g);
        let reference = every_expansion(&Context::new(1), &g);
        assert!(reference.0[..6].iter().all(|set| !set.is_empty()));
        assert_eq!(reference.0[4], reference.0[5], "masked vs predicate pull");
        // Threads = 1 and 4: the push loop is the same, the pull regions
        // and the dedup clear reach the pool at 4.
        for threads in [1, 4] {
            let ctx = Context::new(threads);
            assert_eq!(every_expansion(&ctx, &g), reference, "raw, {threads}");
            assert_eq!(
                every_expansion(&ctx, &cg),
                reference,
                "compressed, {threads}"
            );
        }
    }

    #[test]
    fn empty_graph_expands_to_empty_on_every_representation() {
        let g: Graph<f32> = GraphBuilder::new(0).with_csc().build();
        let cg = CompressedGraph::from_graph(&ThreadPool::new(1), &g);
        let ctx = Context::new(2);
        let f = SparseFrontier::new();
        assert!(neighbors_expand(execution::par, &ctx, &g, &f, |_, _, _, _| true).is_empty());
        assert!(neighbors_expand(execution::par, &ctx, &cg, &f, |_, _, _, _| true).is_empty());
    }

    #[test]
    fn empty_frontier_expands_to_empty() {
        let g = weighted_diamond();
        let ctx = Context::new(2);
        let f = SparseFrontier::new();
        assert!(neighbors_expand(execution::par, &ctx, &g, &f, |_, _, _, _| true).is_empty());
        assert!(
            try_expand_push_dense(execution::par, &ctx, &g, &f, |_, _, _, _| true)
                .unwrap()
                .is_empty()
        );
    }
}
