//! Multi-source batched BFS equivalence: the 64-wide mask-word kernel must
//! be **bit-identical** to running k independent single-source BFS
//! traversals — for every batch width, on every graph family, at every
//! thread count.
//!
//! This is the correctness backbone of the serving engine's throughput
//! lever (`Engine::bfs_batch`): the batch amortizes one graph pass over up
//! to 64 queries, and these tests pin down that the amortization is
//! invisible in the results — each query gets exactly the level vector a
//! dedicated traversal would have produced, deterministically across
//! thread counts.

use essentials::prelude::*;
use essentials_algos::bfs::bfs;
use essentials_algos::multi_source::{bfs_multi_source, MAX_BATCH};
use essentials_gen as gen;
use proptest::prelude::*;

/// The fixed-push plan: the traversal of the paper's listings, CSR only.
fn push() -> DirectionPolicy {
    DirectionPolicy::fixed(Direction::Push)
}

/// Batch widths exercising both word edges (bit 0, the full word) and the
/// interior.
const WIDTHS: [usize; 4] = [1, 2, 63, 64];

/// Thread counts: sequential fallback, minimal real parallelism, and
/// oversubscribed.
const THREADS: [usize; 3] = [1, 2, 8];

/// Asserts batched == k independent runs, bit for bit, on one context.
fn assert_batch_matches(ctx: &Context, g: &Graph<()>, sources: &[VertexId]) {
    let batch = bfs_multi_source(execution::par, ctx, g, sources);
    assert_eq!(batch.batch, sources.len());
    for (s, &src) in sources.iter().enumerate() {
        let single = bfs(execution::par, ctx, g, src, push());
        assert_eq!(
            batch.source_levels(s),
            single.level,
            "lane {s} (source {src}) diverged from its dedicated traversal"
        );
    }
    batch.recycle(ctx);
}

/// Spreads `k` sources deterministically over the vertex range (duplicates
/// allowed when k > n — the kernel must handle repeated sources).
fn spread_sources(n: usize, k: usize) -> Vec<VertexId> {
    (0..k)
        .map(|i| ((i * 2_654_435_761) % n.max(1)) as VertexId)
        .collect()
}

#[test]
fn rmat_batches_match_independent_runs_at_every_width_and_thread_count() {
    let g: Graph<()> = Graph::from_coo(&gen::rmat(10, 8, gen::RmatParams::default(), 42));
    let n = g.num_vertices();
    for &threads in &THREADS {
        let ctx = Context::new(threads);
        for &k in &WIDTHS {
            assert_batch_matches(&ctx, &g, &spread_sources(n, k));
        }
    }
}

#[test]
fn grid_batches_match_independent_runs_at_every_width_and_thread_count() {
    // High-diameter counterpart to R-MAT: many BSP iterations, small
    // frontiers — the regime where per-iteration overheads would show up
    // as level skew if the lock-step advance were wrong.
    let g: Graph<()> = Graph::from_coo(&gen::grid2d(40, 25));
    let n = g.num_vertices();
    for &threads in &THREADS {
        let ctx = Context::new(threads);
        for &k in &WIDTHS {
            assert_batch_matches(&ctx, &g, &spread_sources(n, k));
        }
    }
}

#[test]
fn full_width_batch_on_disconnected_graph() {
    // Star + isolated tail: most lanes see a 1-hop world, lanes rooted in
    // the tail see only themselves; unvisited entries must stay UNVISITED
    // in every lane.
    let mut edges: Vec<(VertexId, VertexId, ())> = Vec::new();
    for v in 1..32 {
        edges.push((0, v, ()));
    }
    let g: Graph<()> = Graph::from_coo(&Coo::from_edges(96, edges));
    let sources: Vec<VertexId> = (0..MAX_BATCH as VertexId).collect();
    for &threads in &THREADS {
        assert_batch_matches(&Context::new(threads), &g, &sources);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random directed graphs, random source multisets (duplicates
    /// allowed), random batch width in 1..=64: batched output is
    /// bit-identical to k independent runs at 1, 2, and 8 threads.
    #[test]
    fn bfs_multi_source_matches_independent_runs(
        (g, sources) in (2usize..48).prop_flat_map(|n| {
            let edge = (0..n as VertexId, 0..n as VertexId);
            let edges = prop::collection::vec(edge, 0..220);
            let srcs = prop::collection::vec(0..n as VertexId, 1..MAX_BATCH + 1);
            (edges, srcs).prop_map(move |(edges, srcs)| {
                let coo = Coo::from_edges(n, edges.into_iter().map(|(s, d)| (s, d, ())));
                (Graph::<()>::from_coo(&coo), srcs)
            })
        })
    ) {
        let mut per_thread: Vec<Vec<u32>> = Vec::new();
        for &threads in &THREADS {
            let ctx = Context::new(threads);
            let batch = bfs_multi_source(execution::par, &ctx, &g, &sources);
            for (s, &src) in sources.iter().enumerate() {
                let single = bfs(execution::par, &ctx, &g, src, push());
                prop_assert_eq!(
                    batch.source_levels(s),
                    single.level,
                    "lane {} (source {}) diverged at {} threads",
                    s,
                    src,
                    threads
                );
            }
            per_thread.push(batch.levels.clone());
            batch.recycle(&ctx);
        }
        // Determinism across thread counts: the full level table is one
        // bit pattern, not merely per-lane equivalent.
        prop_assert_eq!(&per_thread[0], &per_thread[1]);
        prop_assert_eq!(&per_thread[1], &per_thread[2]);
    }
}
