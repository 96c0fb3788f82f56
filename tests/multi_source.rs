//! Multi-source batched BFS equivalence: the 64-wide mask-word kernel must
//! be **bit-identical** to running k independent single-source BFS
//! traversals — for every batch width, on every graph family, at every
//! thread count, on both of its paths (lock-step while the lanes share
//! frontier vertices, one traversal per lane when they do not).
//!
//! This is the correctness backbone of the serving engine's throughput
//! lever (`Engine::bfs_batch`): the batch amortizes one graph pass over up
//! to 64 queries, and these tests pin down that the amortization is
//! invisible in the results — each query gets exactly the level vector a
//! dedicated traversal would have produced, deterministically across
//! thread counts.

use essentials::prelude::*;
use essentials_algos::bfs::{bfs, bfs_sequential, BfsResult};
use essentials_algos::multi_source::{bfs_multi_source, MAX_BATCH, UNVISITED};
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
fn pool_sweep_matches_independent_runs_and_counts_work_exactly() {
    // 2^17 vertices = 2,048 mask words: the size at which the sweep, which
    // counts each word as one unit of work, leaves the calling thread, so
    // 2 and 8 threads run the word sweep on the pool. R-MAT's hubs make
    // many lanes race for the same destination words in the same
    // iteration.
    let g: Graph<()> = Graph::from_coo(&gen::rmat(17, 4, gen::RmatParams::default(), 11));
    let n = g.num_vertices();
    let words = n.div_ceil(64);
    assert!(!Schedule::Dynamic(4).runs_inline(words, words));
    // Full width, every lane rooted at a vertex with out-edges.
    let sources: Vec<VertexId> = spread_sources(n, 8 * MAX_BATCH)
        .into_iter()
        .filter(|&s| g.out_degree(s) > 0)
        .take(MAX_BATCH)
        .collect();
    assert_eq!(sources.len(), MAX_BATCH);
    let oracle: Vec<Vec<u32>> = sources
        .iter()
        .map(|&s| bfs_sequential(&g, s).level)
        .collect();
    // Work reference: iteration i inspects the out-edges of every vertex
    // with some lane at level i, once however many lanes share it.
    let mut expected = 0usize;
    let mut levels: Vec<u32> = Vec::with_capacity(MAX_BATCH);
    for v in 0..n {
        levels.clear();
        levels.extend(oracle.iter().map(|lv| lv[v]).filter(|&l| l != UNVISITED));
        levels.sort_unstable();
        levels.dedup();
        expected += levels.len() * g.out_degree(v as VertexId);
    }
    for &threads in &THREADS {
        let ctx = Context::new(threads);
        let batch = bfs_multi_source(execution::par, &ctx, &g, &sources);
        for (s, lv) in oracle.iter().enumerate() {
            assert_eq!(
                &batch.source_levels(s),
                lv,
                "lane {s} diverged at {threads} threads"
            );
        }
        assert_eq!(batch.edges_inspected, expected, "{threads} threads");
        batch.recycle(&ctx);
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

/// Lock-step levels a batch probes for shared frontier vertices before it
/// splits.
const PROBE_LEVELS: u32 = 4;

/// The lock-step sweep's work over its first `levels` levels, from the
/// lanes' oracle levels: one iteration per level some lane reaches, and
/// each vertex's out-edges once per distinct level the lanes reach it at.
fn lock_step_work(g: &Graph<()>, oracle: &[Vec<u32>], levels: u32) -> (usize, usize) {
    let mut iterations = 0usize;
    let mut edges = 0usize;
    let mut seen: Vec<u32> = Vec::with_capacity(oracle.len());
    for v in 0..g.num_vertices() {
        seen.clear();
        seen.extend(oracle.iter().map(|lv| lv[v]).filter(|&l| l < levels));
        seen.sort_unstable();
        seen.dedup();
        edges += seen.len() * g.out_degree(v as VertexId);
        if let Some(&deepest) = seen.last() {
            iterations = iterations.max(deepest as usize + 1);
        }
    }
    (iterations, edges)
}

#[test]
fn grid_batches_split_and_rmat_batches_stay_lock_step_on_csr_only_and_csc_graphs() {
    // A grid's lanes advance on disjoint wavefronts, so a batch of two or
    // more splits after the probe levels; R-MAT lanes meet at the hubs by
    // level 2 and stay lock-step. Either way every lane is bit-identical
    // to the oracle, and the work counts say which path ran.
    let grid = Graph::<()>::from_coo(&gen::grid2d(48, 48));
    let rmat = Graph::<()>::from_coo(&gen::rmat(11, 8, gen::RmatParams::default(), 3));
    for (name, g, splits) in [("grid", grid, true), ("rmat", rmat, false)] {
        let n = g.num_vertices();
        let g_csc = g.clone().with_csc();
        for (rep, g, plan) in [
            ("csr-only", &g, push()),
            ("csc", &g_csc, DirectionPolicy::default()),
        ] {
            for k in [1, 16, MAX_BATCH] {
                let sources: Vec<VertexId> = spread_sources(n, 8 * k)
                    .into_iter()
                    .filter(|&s| g.out_degree(s) > 0)
                    .take(k)
                    .collect();
                let oracle: Vec<Vec<u32>> = sources
                    .iter()
                    .map(|&s| bfs_sequential(g, s).level)
                    .collect();
                for &threads in &THREADS {
                    let ctx = Context::new(threads);
                    let batch = bfs_multi_source(execution::par, &ctx, g, &sources);
                    for (s, lv) in oracle.iter().enumerate() {
                        assert_eq!(
                            &batch.source_levels(s),
                            lv,
                            "{name} {rep} width {k}: lane {s} diverged at {threads} threads"
                        );
                    }
                    // Width 1 shares with nobody and always splits; the
                    // 16-wide row pins each family's path.
                    let split = match k {
                        1 => Some(true),
                        16 => Some(splits),
                        _ => None,
                    };
                    let at = format!("{name} {rep} width {k} at {threads} threads");
                    if split == Some(true) {
                        let probe = if k == 1 { 0 } else { PROBE_LEVELS };
                        let (iterations, edges) = lock_step_work(g, &oracle, probe);
                        let singles: Vec<BfsResult> = sources
                            .iter()
                            .map(|&s| bfs(execution::par, &ctx, g, s, plan))
                            .collect();
                        let lane_iterations: usize =
                            singles.iter().map(|r| r.stats.iterations).sum();
                        let lane_edges: usize = singles.iter().map(|r| r.edges_inspected).sum();
                        assert_eq!(batch.iterations, iterations + lane_iterations, "{at}");
                        assert_eq!(batch.edges_inspected, edges + lane_edges, "{at}");
                    } else if split == Some(false) {
                        let work = lock_step_work(g, &oracle, u32::MAX);
                        assert_eq!((batch.iterations, batch.edges_inspected), work, "{at}");
                    }
                    batch.recycle(&ctx);
                }
            }
        }
    }
}

#[test]
fn a_split_batch_reports_the_probe_levels_plus_every_lane() {
    // 0 → 1 → … → 29, lanes from 0 and 10: they never share a frontier
    // vertex. Lock-step probes levels 0..=3 ({0, 10} … {3, 13}: 2 edges
    // each), then both lanes restart from their sources on the push plan
    // (no CSC): 30 iterations and 29 edges from 0, 20 and 19 from 10.
    // The probe's claims are undone, so lane 1 leaves 0..10 unvisited.
    let g = Graph::<()>::from_coo(&gen::path(30));
    for &threads in &THREADS {
        let ctx = Context::new(threads);
        let batch = bfs_multi_source(execution::par, &ctx, &g, &[0, 10]);
        assert_eq!(batch.iterations, 4 + 30 + 20, "{threads} threads");
        assert_eq!(batch.edges_inspected, 4 * 2 + 29 + 19, "{threads} threads");
        assert_eq!(batch.source_levels(0), (0..30).collect::<Vec<u32>>());
        let lane1: Vec<u32> = (0..30)
            .map(|v| if v < 10 { UNVISITED } else { v - 10 })
            .collect();
        assert_eq!(batch.source_levels(1), lane1);
        assert_eq!(batch.level(29, 1), 19);
        batch.recycle(&ctx);
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
