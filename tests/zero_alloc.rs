//! Steady-state allocation audit for the frontier pipeline.
//!
//! After warm-up (scratch buffers grown, frontier pool primed), one full
//! advance iteration — degree scan, edge-balanced expansion, lock-free
//! collection, output assembly, frontier recycling — must touch the
//! allocator **zero** times, in every direction (sparse push, fused-dedup
//! push, dense push, masked / predicate / blocked pull) and over every
//! representation (raw CSR, byte-coded compressed, mmapped container): the
//! same generic audit runs on each.
//!
//! The count comes from `common/counting_alloc.rs`, which charges a
//! measurement only with the allocations of its own thread and of the pool
//! it names. libtest runs the tests below on parallel threads and allocates
//! on its own main thread between them; none of that reaches a count
//! (`a_concurrently_allocating_sibling_does_not_move_the_count` pins it).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use essentials::prelude::*;
use essentials_gen as gen;
use essentials_parallel::atomics::AtomicF32;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
#[path = "common/reps.rs"]
mod reps;

use counting_alloc::count_allocs;
use reps::Reps;

const THREADS: [usize; 3] = [1, 2, 8];

/// Power-law graph big enough that every parallel path (scan, chunked edge
/// balancing, per-worker buffers) actually engages, in all representations.
fn rmat_reps() -> Reps<()> {
    Reps::new(Graph::from_coo(&gen::rmat(12, 8, gen::RmatParams::default(), 7)).with_csc())
}

/// Calls `audit(representation, threads, graph, ctx)` — one generic body —
/// for raw / compressed / mmapped × 1 / 2 / 8 threads. `ctx_for` builds the
/// context under audit.
macro_rules! for_each_rep_and_thread_count {
    ($reps:expr, $ctx_for:expr, $audit:ident) => {{
        let reps = $reps;
        let mapped = reps.mapped();
        for t in THREADS {
            $audit("raw", t, &reps.raw, &$ctx_for(t));
            $audit("compressed", t, &reps.compressed, &$ctx_for(t));
            $audit("mmapped", t, &mapped, &$ctx_for(t));
        }
    }};
}

/// Warms `iteration` up, then asserts one more run allocates nothing.
fn assert_warm_iteration_is_alloc_free(ctx: &Context, what: &str, mut iteration: impl FnMut()) {
    // Warm-up: grows the scan buffers, the per-worker buffers, the dedup
    // bitmap, and primes the frontier / bitmap pools.
    for _ in 0..3 {
        iteration();
    }
    let allocs = count_allocs(ctx.pool(), &mut iteration);
    assert_eq!(
        allocs, 0,
        "steady-state {what} hit the allocator {allocs} times"
    );
}

/// Every member of the advance family, one warm iteration each.
fn audit_advance_family<G>(rep: &str, threads: usize, g: &G, ctx: &Context)
where
    G: OutWeights<()> + InWeights<()> + Sync,
{
    let n = g.num_vertices();
    let frontier: SparseFrontier = (0..n as VertexId).step_by(2).collect();
    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let dist: Vec<AtomicF32> = (0..n).map(|_| AtomicF32::new(f32::INFINITY)).collect();
    // Persistent pull-side state, as an adaptive loop would hold it: the
    // dense input frontier and the unvisited-candidates mask.
    let dense_in = DenseFrontier::new(n);
    for v in (0..n as VertexId).step_by(2) {
        dense_in.insert(v);
    }
    let mask = DenseFrontier::new(n);

    // Levels are reset (plain stores, no allocation) so every run does
    // identical work; the condition is BFS's claim-by-CAS.
    let reset = || {
        for l in &levels {
            l.store(u32::MAX, Ordering::Relaxed);
        }
    };
    let claim = |d: VertexId| {
        levels[d as usize]
            .compare_exchange(u32::MAX, 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    };
    let audit = |op: &str, iteration: &mut dyn FnMut()| {
        assert_warm_iteration_is_alloc_free(
            ctx,
            &format!("{op} on {rep} at {threads} threads"),
            iteration,
        )
    };

    audit("sparse push", &mut || {
        reset();
        let out = neighbors_expand(execution::par, ctx, g, &frontier, |_s, d, _e, _w| claim(d));
        ctx.recycle_frontier(out);
    });
    // SSSP-style: atomic-min relaxation with fused dedup.
    audit("fused-dedup push", &mut || {
        for d in &dist {
            d.store(f32::INFINITY, Ordering::Relaxed);
        }
        let out = neighbors_expand_unique(execution::par, ctx, g, &frontier, |s, d, _e, _w| {
            let nd = s as f32;
            dist[d as usize].fetch_min(nd, Ordering::AcqRel) > nd
        });
        ctx.recycle_frontier(out);
    });
    // Bitmap output, recycled through the context's dense pool.
    audit("dense push", &mut || {
        reset();
        let out =
            try_expand_push_dense(execution::par, ctx, g, &frontier, |_s, d, _e, _w| claim(d));
        ctx.recycle_dense_frontier(out.unwrap());
    });
    // Word-parallel scan of the mask; mask maintenance (set_all + and_not)
    // is word stores.
    audit("masked pull", &mut || {
        reset();
        mask.set_all();
        let (out, _scanned) = expand_pull_masked(
            execution::par,
            ctx,
            g,
            &dense_in,
            &mask,
            PullConfig { early_exit: true },
            |_s, d, _w| claim(d),
        );
        mask.and_not(&out);
        ctx.recycle_dense_frontier(out);
    });
    audit("predicate pull", &mut || {
        reset();
        let (out, _scanned) = expand_pull_counted(
            execution::par,
            ctx,
            g,
            &dense_in,
            PullConfig { early_exit: true },
            |d| levels[d as usize].load(Ordering::Acquire) == u32::MAX,
            |_s, d, _w| claim(d),
        );
        ctx.recycle_dense_frontier(out);
    });
    audit("blocked pull", &mut || {
        reset();
        mask.set_all();
        let (out, _scanned) = try_expand_blocked_pull(
            execution::par,
            ctx,
            g,
            &dense_in,
            &mask,
            PullConfig { early_exit: true },
            BlockedConfig::default(),
            |_s, d, _w| claim(d),
        )
        .unwrap();
        mask.and_not(&out);
        ctx.recycle_dense_frontier(out);
    });
}

#[test]
fn steady_state_advance_iterations_do_not_allocate() {
    for_each_rep_and_thread_count!(rmat_reps(), Context::new, audit_advance_family);
}

#[test]
fn null_sink_preserves_the_zero_allocation_guarantee() {
    // The observability layer's overhead contract: with a NullSink attached
    // (wants_op_detail == false) the operators must skip every piece of
    // detail bookkeeping — admission counters, per-worker tallies, degree
    // sums, event buffers — and the steady state stays allocation-free.
    let observed = |t| Context::new(t).with_obs(Arc::new(NullSink) as Arc<dyn ObsSink>);
    for_each_rep_and_thread_count!(rmat_reps(), observed, audit_advance_family);
}

#[test]
fn budget_checks_preserve_the_zero_allocation_guarantee() {
    // The resilient layer's overhead contract: with a full (but unfired)
    // RunBudget attached — cancel token, far deadline, iteration cap — the
    // operators route through the hooked chunk loops, and those checks are
    // a branch plus a relaxed load each: the steady state must stay
    // allocation-free.
    let budgeted = |t| {
        Context::new(t).with_budget(
            RunBudget::unlimited()
                .with_cancel(CancelToken::new())
                .with_timeout(Duration::from_secs(3600))
                .with_max_iterations(1_000_000),
        )
    };
    for_each_rep_and_thread_count!(rmat_reps(), budgeted, audit_advance_family);
}

/// A cancellation mid-run must hand every pooled buffer back: after the
/// typed error, steady-state iterations on the shared context still
/// allocate nothing.
fn audit_reuse_after_cancellation<G>(rep: &str, threads: usize, g: &G, ctx: &Context)
where
    G: OutWeights<()> + InWeights<()> + Sync,
{
    let n = g.num_vertices();
    let frontier: SparseFrontier = (0..n as VertexId).step_by(2).collect();
    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let claim = |d: VertexId| {
        levels[d as usize]
            .compare_exchange(u32::MAX, 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    };
    let iteration = || {
        for l in &levels {
            l.store(u32::MAX, Ordering::Relaxed);
        }
        let out = neighbors_expand(execution::par, ctx, g, &frontier, |_s, d, _e, _w| claim(d));
        ctx.recycle_frontier(out);
    };
    for _ in 0..3 {
        iteration();
    }

    // Cancel an advance on a budgeted clone (shared pool + scratch).
    let token = CancelToken::new();
    token.cancel();
    let cancelled = ctx
        .clone()
        .with_budget(RunBudget::unlimited().with_cancel(token));
    let err = try_neighbors_expand(execution::par, &cancelled, g, &frontier, |_s, d, _e, _w| {
        claim(d)
    })
    .unwrap_err();
    assert!(
        matches!(err, ExecError::Budget { .. }),
        "expected Budget error on {rep} at {threads} threads, got {err:?}"
    );

    let allocs = count_allocs(ctx.pool(), iteration);
    assert_eq!(
        allocs, 0,
        "advance on {rep} at {threads} threads hit the allocator {allocs} times after a cancelled run"
    );
}

#[test]
fn cancelled_then_reused_context_stays_allocation_free() {
    for_each_rep_and_thread_count!(rmat_reps(), Context::new, audit_reuse_after_cancellation);
}

/// One naive pull PageRank iteration: indexed gather over the in-neighbor
/// stream into a double buffer, then a swap — as `pagerank_pull` runs it.
fn audit_pagerank_pull_iteration<G>(rep: &str, threads: usize, g: &G, ctx: &Context)
where
    G: OutAdjacency + InAdjacency + Sync,
{
    let n = g.num_vertices();
    let damping = 0.85;
    let base = (1.0 - damping) / n as f64;
    // Persistent per-run state: the reciprocal out-degree vector and the
    // two rank buffers that swap each iteration.
    let mut inv = vec![0.0f64; n];
    fill_indexed_into(execution::par, ctx, &mut inv, |v| {
        let d = g.out_degree(v as VertexId);
        if d == 0 {
            0.0
        } else {
            (d as f64).recip()
        }
    });
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let what = format!("pull PageRank iteration on {rep} at {threads} threads");
    assert_warm_iteration_is_alloc_free(ctx, &what, || {
        let (r_now, inv) = (&rank, &inv);
        fill_indexed_into(execution::par, ctx, &mut next, |v| {
            let sum: f64 = g
                .in_neighbors_from(v as VertexId, 0)
                .map(|u| r_now[u as usize] * inv[u as usize])
                .sum();
            base + damping * sum
        });
        std::mem::swap(&mut rank, &mut next);
    });
}

#[test]
fn steady_state_pagerank_pull_and_blocked_gather_do_not_allocate() {
    // The rank-vector side of the contract, NullSink attached throughout.
    let observed = |t| Context::new(t).with_obs(Arc::new(NullSink) as Arc<dyn ObsSink>);
    for_each_rep_and_thread_count!(rmat_reps(), observed, audit_pagerank_pull_iteration);

    // The propagation-blocked variant streams a fixed destination-binned
    // layout built once up front (from raw out-slices); its iteration body
    // — value fill + per-bin flush — may not touch the allocator either.
    let g: Graph<()> = Graph::from_coo(&gen::rmat(12, 8, gen::RmatParams::default(), 7));
    let n = g.num_vertices();
    let ctx = observed(4);
    let (damping, base) = (0.85, 0.15 / n as f64);
    let inv: Vec<f64> = (0..n as VertexId)
        .map(|v| (g.out_degree(v).max(1) as f64).recip())
        .collect();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut gatherer =
        BlockedGather::over_out_edges(execution::par, &ctx, &g, BlockedConfig::default());
    assert_warm_iteration_is_alloc_free(&ctx, "blocked gather iteration", || {
        let (r_now, inv) = (&rank, &inv);
        gatherer.gather(
            execution::par,
            &ctx,
            |u| r_now[u] * inv[u],
            |_, acc| base + damping * acc,
            &mut next,
        );
        std::mem::swap(&mut rank, &mut next);
    });
    gatherer.finish(&ctx);
}

#[test]
fn steady_state_delta_stepping_rounds_do_not_allocate() {
    // The Δ-stepping hot loop — take the active list, relax with fused
    // dedup, partition the survivors back into buckets — used to allocate
    // three fresh vectors per round. It now cycles its storage through the
    // context's pools (active list and partition buffer) and a local
    // free-list (bucket storage); after warm-up one full round touches the
    // allocator zero times. The per-round work here is deterministic: the
    // distance table is reset before every round, so the improved set and
    // the bucket assignment depend only on the graph.
    let mut coo = gen::rmat(12, 8, gen::RmatParams::default(), 7);
    coo.remove_self_loops();
    coo.symmetrize();
    coo.sort_and_dedup();
    let g: Graph<f32> = Graph::from_coo(&gen::hash_weights(&coo, 0.1, 2.0, 42));
    let n = g.num_vertices();
    let ctx = Context::new(4);
    let delta = 0.3f32;
    let dist: Vec<AtomicF32> = (0..n).map(|_| AtomicF32::new(f32::INFINITY)).collect();
    let seeds: Vec<VertexId> = (0..n as VertexId).step_by(4).collect();

    let mut buckets: Vec<Vec<VertexId>> = Vec::new();
    let mut spare: Vec<Vec<VertexId>> = Vec::new();

    let mut round = || {
        for (i, d) in dist.iter().enumerate() {
            let init = if i % 4 == 0 { 0.0 } else { f32::INFINITY };
            d.store(init, Ordering::Relaxed);
        }
        // Active list from the context pool, exactly as `delta_stepping`
        // hands its storage to the frontier.
        let mut active = ctx.take_u32_buffer();
        active.extend_from_slice(&seeds);
        let f = SparseFrontier::from_vec(active);
        let improved = neighbors_expand_unique(execution::par, &ctx, &g, &f, |s, d, _e, w| {
            let nd = dist[s as usize].load(Ordering::Acquire) + w;
            dist[d as usize].fetch_min(nd, Ordering::AcqRel) > nd
        });
        ctx.recycle_frontier(f);
        // In-place partition: bucket-0 vertices stay, the rest stash into
        // their buckets, fresh buckets draw storage from the free-list.
        let mut buf = improved.into_vec();
        buf.retain(|&v| {
            let b = (dist[v as usize].load(Ordering::Acquire) / delta) as usize;
            if b == 0 {
                return true;
            }
            if b >= buckets.len() {
                buckets.resize_with(b + 1, Vec::new);
            }
            if buckets[b].capacity() == 0 {
                if let Some(recycled) = spare.pop() {
                    buckets[b] = recycled;
                }
            }
            buckets[b].push(v);
            false
        });
        ctx.recycle_u32_buffer(buf);
        // Bucket retirement: drained storage parks on the free-list.
        for b in &mut buckets {
            if b.capacity() > 0 {
                let mut drained = std::mem::take(b);
                drained.clear();
                spare.push(drained);
            }
        }
    };

    for _ in 0..3 {
        round();
    }

    let allocs = count_allocs(ctx.pool(), &mut round);
    assert_eq!(
        allocs, 0,
        "steady-state Δ-stepping round hit the allocator {allocs} times"
    );
}

#[test]
fn warm_serving_engine_requests_do_not_allocate() {
    // The serving layer's extension of the contract: a warm `Engine`
    // serving a batched-BFS request end to end — admission fast path,
    // scratch-slot checkout, request-scoped context, the 64-wide traversal
    // itself, and recycling the returned level table — touches the
    // allocator zero times. This is what the keyed scratch pool exists
    // for: each request leases a whole slot, so repeated requests always
    // land on the buffers they warmed up.
    use essentials::serve::{Engine, EngineConfig};

    let graph = Arc::new(Graph::<()>::from_coo(&gen::rmat(
        11,
        8,
        gen::RmatParams::default(),
        7,
    )));
    let n = graph.num_vertices();
    let engine = Engine::new(
        graph,
        EngineConfig {
            threads: 4,
            permits: 2,
            heavy_permits: 1,
        },
    );
    let sources: Vec<VertexId> = (0..64).map(|i| (i * 131) % n as VertexId).collect();

    let request = || {
        let batch = engine
            .bfs_batch(&sources, RunBudget::unlimited())
            .expect("batch served");
        engine.recycle_batch(batch);
    };

    // Warm-up grows the level table, the mask words, and the two active
    // bitmaps inside one pool slot; with no concurrent requests the
    // engine's checkout scan always hands that same slot back.
    for _ in 0..3 {
        request();
    }

    let allocs = count_allocs(engine.pool(), request);
    assert_eq!(
        allocs, 0,
        "warm serving-engine request hit the allocator {allocs} times"
    );
}

#[test]
fn a_concurrently_allocating_sibling_does_not_move_the_count() {
    // The instrument's own contract. A sibling thread allocates in a loop
    // for as long as the measurements below run; a channel (not a sleep)
    // proves it is allocating *during* each measurement. The count must see
    // exactly the measuring thread and its pool's workers.
    let pool = ThreadPool::new(3);
    let stop = AtomicBool::new(false);
    let sibling_allocs = AtomicUsize::new(0);
    let (started_tx, started_rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                std::hint::black_box(vec![0u8; 64]);
                if sibling_allocs.fetch_add(1, Ordering::Release) == 0 {
                    started_tx.send(()).unwrap();
                }
            }
        });
        started_rx.recv().unwrap();

        // Nothing of ours allocates, while the sibling provably does.
        let quiet = count_allocs(&pool, || {
            let seen = sibling_allocs.load(Ordering::Acquire);
            while sibling_allocs.load(Ordering::Acquire) < seen + 1000 {
                std::hint::spin_loop();
            }
        });
        // One allocation on the measuring thread, one on every worker.
        let ours = count_allocs(&pool, || {
            std::hint::black_box(vec![0u8; 64]);
            pool.run(|_| {
                std::hint::black_box(vec![0u8; 64]);
            });
        });
        stop.store(true, Ordering::Release);
        assert_eq!(quiet, 0, "the sibling's allocations leaked into the count");
        assert_eq!(ours, 1 + pool.num_threads(), "own allocations miscounted");
    });
    // Disarmed again: this thread's allocations are charged to nobody.
    assert_eq!(count_allocs(&pool, || {}), 0);
}
