//! The word-grained kernels run on the pool when their work pays for it.
//!
//! The masked pull and the unvisited-mask build loop over 64-vertex
//! *words*, so an item-count cut-off kept them on one thread at every
//! graph size. The dispatch rule counts the vertex slots behind the words
//! instead. These tests pin that, at n = 2^16 on a 2-worker pool, each
//! kernel really runs on the pool, so it cannot slide back to serial
//! unseen; and that the lock-step batch sweep, which counts words, does
//! from 2^17 vertices. Each builds its own `ThreadPool::new(2)`: the
//! `ESSENTIALS_THREADS` override of `Context::new` must not make the pin
//! vacuous.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use essentials::prelude::*;
use essentials_algos::multi_source::bfs_multi_source;
use essentials_gen as gen;

const N: usize = 1 << 16;

fn two_worker_context() -> Context {
    Context::with_pool(Arc::new(ThreadPool::new(2)))
}

/// A ring `v → v + 1 (mod N)` with its in-stream: every vertex has one
/// active in-neighbour under a full input frontier.
fn ring() -> Graph<()> {
    let edges = (0..N as VertexId).map(|v| (v, (v + 1) % N as VertexId, ()));
    Graph::from_coo(&Coo::from_edges(N, edges)).with_csc()
}

/// Records the threads that call [`Rendezvous::arrive`]; a caller waits
/// there (up to a deadline) until a second thread has arrived, so a pooled
/// kernel shows both workers however fast its first worker drains the
/// range, and a serial one shows one after the deadline passes.
struct Rendezvous {
    seen: Mutex<Vec<ThreadId>>,
    deadline: Instant,
}

impl Rendezvous {
    fn new() -> Self {
        Rendezvous {
            seen: Mutex::new(Vec::new()),
            deadline: Instant::now() + Duration::from_secs(5),
        }
    }

    fn arrive(&self) {
        let me = std::thread::current().id();
        {
            let mut seen = self.seen.lock().unwrap();
            if !seen.contains(&me) {
                seen.push(me);
            }
        }
        while self.seen.lock().unwrap().len() < 2 && Instant::now() < self.deadline {
            std::thread::yield_now();
        }
    }

    fn threads(&self) -> usize {
        self.seen.lock().unwrap().len()
    }
}

#[test]
fn masked_pull_over_2_16_vertices_runs_on_both_workers() {
    let ctx = two_worker_context();
    let g = ring();
    let (input, candidates) = (DenseFrontier::new(N), DenseFrontier::new(N));
    input.set_all();
    candidates.set_all();
    let meet = Rendezvous::new();
    let cfg = PullConfig { early_exit: true };
    let (out, scanned) = try_expand_pull_masked(
        execution::par,
        &ctx,
        &g,
        &input,
        &candidates,
        cfg,
        |_, _, _| {
            meet.arrive();
            true
        },
    )
    .unwrap();
    assert_eq!((out.len(), scanned), (N, N));
    assert_eq!(meet.threads(), 2, "the masked pull ran on one thread");
}

#[test]
fn unvisited_mask_build_runs_on_both_workers() {
    // A settling traversal's first pull builds the unvisited mask from the
    // candidate predicate; that build is the only caller of `candidate`.
    let ctx = two_worker_context();
    let g = ring();
    let cfg = AdaptiveConfig {
        policy: DirectionPolicy::fixed(Direction::Pull),
        early_exit: true,
        settle: true,
    };
    let mut engine = AdaptiveAdvance::new(&g, cfg);
    let meet = Rendezvous::new();
    let next = try_advance_adaptive(
        execution::par,
        &ctx,
        &g,
        &mut engine,
        VertexFrontier::Sparse(SparseFrontier::single(0)),
        |v| {
            meet.arrive();
            v != 0
        },
        |_, _, _| true,
    )
    .unwrap();
    assert_eq!(next.len(), 1, "the ring's pull from 0 admits 1 only");
    assert_eq!(meet.threads(), 2, "the mask build ran on one thread");
    ctx.recycle_dense_frontier(match next {
        VertexFrontier::Dense(d) => d,
        VertexFrontier::Sparse(_) => unreachable!("a pull returns a dense frontier"),
    });
}

#[test]
fn lock_step_batch_sweep_runs_every_level_on_the_pool_from_2_17_vertices() {
    // The sweep counts each mask word as one unit of work (its scattered
    // destination RMWs gain little from a second worker below this size),
    // so it reaches the pool from 2^17 vertices = 2,048 words. R-MAT lanes
    // share frontier vertices, so the batch stays lock-step and each of
    // its levels is one sweep: nothing else in a lock-step batch opens a
    // region.
    let ctx = two_worker_context();
    let g = Graph::<()>::from_coo(&gen::rmat(17, 4, gen::RmatParams::default(), 11));
    let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| g.out_degree(v) > 0)
        .step_by(997)
        .take(16)
        .collect();
    let before = ctx.pool().region_counts();
    let batch = bfs_multi_source(execution::par, &ctx, &g, &sources);
    let pooled = ctx.pool().region_counts().pooled - before.pooled;
    assert!(
        pooled >= batch.iterations as u64,
        "{pooled} pooled regions for {} lock-step levels",
        batch.iterations
    );
    batch.recycle(&ctx);
}
