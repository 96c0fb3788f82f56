//! Steady-state allocation audit for the frontier pipeline.
//!
//! After warm-up (scratch buffers grown, frontier pool primed), one full
//! advance iteration — the push into a pooled output vector, the dedup-bit
//! clear, lock-free per-worker collection, frontier recycling — must touch the
//! allocator **zero** times, in every direction (sparse push, fused-dedup
//! push, dense push, masked / predicate / blocked pull) and over every
//! representation (raw CSR, byte-coded compressed, mmapped container): the
//! same generic audit runs on each. Warm iterations of every PageRank and
//! HITS plan, and warm Pregel supersteps, touch the allocator zero times
//! too.
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
use essentials_algos::{bfs, hits, multi_source, pagerank, sssp};
use essentials_gen as gen;
use essentials_mp::algorithms::mp_pagerank;
use essentials_parallel::atomics::AtomicF32;
use essentials_partition::{random_partition, PartitionedGraph};

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

/// Iterations in the short and the long audited run of a ranking plan.
const SHORT: usize = 2;
const LONG: usize = 6;

/// Every ranking plan, through the one power-iteration body of each
/// algorithm: PageRank's pull scan, blocked gather and push scatter, and
/// HITS' scans and blocked gather. A run allocates per-run state (its
/// result, the push accumulators, a blocked layout's first fill), so a warm
/// *iteration* is allocation-free exactly when a warm run of `LONG`
/// iterations allocates no more than one of `SHORT`.
fn audit_ranking_plans<G>(rep: &str, threads: usize, g: &G, ctx: &Context)
where
    G: OutAdjacency + InAdjacency + Sync,
{
    let blocked = DirectionPolicy::fixed(Direction::BlockedPull);
    let pr = |plan: DirectionPolicy| {
        move |k: usize| {
            let cfg = pagerank::PrConfig {
                damping: 0.85,
                tolerance: 0.0,
                max_iterations: k,
            };
            pagerank::pagerank(execution::par, ctx, g, cfg, plan);
        }
    };
    let hits = |plan: DirectionPolicy| {
        move |k: usize| {
            let cfg = hits::HitsConfig {
                tolerance: 0.0,
                max_iterations: k,
            };
            hits::hits(execution::par, ctx, g, cfg, plan);
        }
    };
    let rows: [(&str, &dyn Fn(usize)); 5] = [
        ("pull PageRank", &pr(DirectionPolicy::default())),
        ("blocked PageRank", &pr(blocked)),
        (
            "push PageRank",
            &pr(DirectionPolicy::fixed(Direction::Push)),
        ),
        ("HITS", &hits(DirectionPolicy::default())),
        ("blocked HITS", &hits(blocked)),
    ];
    for (what, run) in rows {
        for _ in 0..3 {
            run(SHORT);
        }
        let short = count_allocs(ctx.pool(), || run(SHORT));
        let long = count_allocs(ctx.pool(), || run(LONG));
        assert_eq!(
            long,
            short,
            "{} extra warm {what} iterations on {rep} at {threads} threads hit the allocator {} times",
            LONG - SHORT,
            long.saturating_sub(short)
        );
    }
}

#[test]
fn steady_state_pagerank_pull_and_blocked_gather_do_not_allocate() {
    // The rank-vector side of the contract, NullSink attached throughout:
    // every PageRank and HITS plan, the pull scan and blocked gather among
    // them, on every representation.
    let observed = |t| Context::new(t).with_obs(Arc::new(NullSink) as Arc<dyn ObsSink>);
    for_each_rep_and_thread_count!(rmat_reps(), observed, audit_ranking_plans);
}

/// The Pregel engine's per-rank outboxes and inboxes reach their size in
/// the first message-bearing superstep and are reused after it: a warm
/// `mp_pagerank` run of `LONG` supersteps (one fewer iteration, plus the
/// quiescent superstep) allocates exactly as often as one of `SHORT`.
#[test]
fn warm_pregel_supersteps_do_not_allocate() {
    let g = GraphBuilder::from_coo(gen::rmat(10, 8, gen::RmatParams::default(), 3))
        .remove_self_loops()
        .symmetrize()
        .deduplicate()
        .build();
    let pg = PartitionedGraph::build(&g, &random_partition(g.num_vertices(), 3, 5));
    for t in THREADS {
        let ctx = Context::new(t);
        let run = |supersteps: usize| {
            let (_, stats) = mp_pagerank(&ctx, &pg, 0.85, supersteps - 1);
            assert_eq!(stats.supersteps, supersteps);
        };
        for _ in 0..3 {
            run(SHORT);
        }
        let short = count_allocs(ctx.pool(), || run(SHORT));
        let long = count_allocs(ctx.pool(), || run(LONG));
        assert_eq!(
            long,
            short,
            "{} extra warm supersteps at {t} threads hit the allocator {} times",
            LONG - SHORT,
            long.saturating_sub(short)
        );
    }
}

/// Δ-stepping through the one SSSP body: near–far iterations recycle every
/// frontier through the context's pools and hold the far pile (reserved to
/// n, each vertex queued once) and its bitmap from them, so a warm run
/// allocates only per-run state (its distances and traces) and one of many
/// iterations allocates exactly as often as one of few.
fn audit_delta_stepping<G>(rep: &str, threads: usize, g: &G, ctx: &Context)
where
    G: OutWeights<f32> + InWeights<f32> + Sync,
{
    let run = |delta: f32| {
        let plan = DirectionPolicy::default();
        let r = sssp::try_delta_stepping(execution::par, ctx, g, 0, plan, delta).expect("run");
        r.stats.iterations
    };
    // Wide buckets take few iterations, narrow ones many.
    let (wide, narrow) = (4.0, 0.25);
    // A drained per-worker buffer is reserved to the whole output, so no
    // output up to the largest drained so far grows one, whichever worker
    // draws which share; the relaxation races still vary output sizes, so
    // the warm-up also runs one bucket (Bellman–Ford order, the largest
    // frontiers) and buckets narrower than the counted runs.
    for _ in 0..5 {
        run(1e3);
        run(narrow / 2.0);
        run(narrow);
        run(wide);
    }
    let (mut few, mut many) = (0, 0);
    let short = count_allocs(ctx.pool(), || few = run(wide));
    for _ in 0..10 {
        let wide_allocs = count_allocs(ctx.pool(), || few = run(wide));
        let long = count_allocs(ctx.pool(), || many = run(narrow));
        // Both inside the traces' up-front reservation.
        assert!(few < many && many < 64, "{few} and {many} iterations");
        assert_eq!(
            wide_allocs, short,
            "a warm Δ-stepping run on {rep} at {threads} threads allocated {wide_allocs} times, an earlier one {short}"
        );
        assert_eq!(
            long,
            short,
            "{} extra warm Δ-stepping iterations on {rep} at {threads} threads hit the allocator {} times",
            many - few,
            long.saturating_sub(short)
        );
    }
}

#[test]
fn steady_state_delta_stepping_rounds_do_not_allocate() {
    let mut coo = gen::rmat(12, 8, gen::RmatParams::default(), 7);
    coo.remove_self_loops();
    coo.symmetrize();
    coo.sort_and_dedup();
    let g: Graph<f32> = Graph::from_coo(&gen::hash_weights(&coo, 0.1, 2.0, 42)).with_csc();
    for_each_rep_and_thread_count!(Reps::new(g), Context::new, audit_delta_stepping);
}

#[test]
fn warm_bfs_allocates_alike_however_many_levels_it_takes() {
    // From a corner, a 16² grid takes 31 levels and a 32² grid 63: both
    // fit the loop's work trace and the direction trace as reserved up
    // front, so neither grows mid-run.
    let plan = DirectionPolicy::default();
    for t in THREADS {
        let warm_count = |side: usize| {
            let g = Graph::<()>::from_coo(&gen::grid2d(side, side)).with_csc();
            let ctx = Context::new(t);
            let run = || {
                let r = bfs::try_bfs(execution::par, &ctx, &g, 0, plan).expect("run");
                assert_eq!(r.stats.iterations, 2 * side - 1);
            };
            for _ in 0..3 {
                run();
            }
            count_allocs(ctx.pool(), run)
        };
        let (short, long) = (warm_count(16), warm_count(32));
        assert_eq!(
            long, short,
            "32 more warm BFS levels at {t} threads changed the allocation count"
        );
    }
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
fn warm_split_grid_batches_allocate_less_than_the_single_runs_they_replace() {
    // A grid's lanes share no frontier vertex, so the batch splits into
    // one traversal per lane. Those lanes claim straight into the batch's
    // pooled level table, so a warm batch allocates only what the
    // traversals' traces need — fewer times than the same lanes as warm
    // `try_bfs` runs, which each allocate a level vector besides (48
    // against 64 allocations for 16 lanes at every thread count, the
    // traces reserved up front).
    let g = Graph::<()>::from_coo(&gen::grid2d(32, 32)).with_csc();
    let n = g.num_vertices() as VertexId;
    let sources: Vec<VertexId> = (0..16).map(|i| (i * 61) % n).collect();
    let plan = DirectionPolicy::default();
    for t in THREADS {
        let ctx = Context::new(t);
        let batch = || {
            multi_source::bfs_multi_source(execution::par, &ctx, &g, &sources).recycle(&ctx);
        };
        let singles = || {
            for &s in &sources {
                bfs::try_bfs(execution::par, &ctx, &g, s, plan).expect("single run");
            }
        };
        for _ in 0..3 {
            batch();
            singles();
        }
        let split = count_allocs(ctx.pool(), batch);
        let single = count_allocs(ctx.pool(), singles);
        assert!(
            split < single,
            "warm split batch at {t} threads allocated {split} times, {} single runs {single}",
            sources.len()
        );
    }
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
