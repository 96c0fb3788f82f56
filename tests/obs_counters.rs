//! `CountersSink` totals against serial reference counts.
//!
//! The observability layer's numbers are only useful if they are *exact*,
//! so each test recomputes the expected total from first principles on a
//! fixed seeded graph and compares with `==`:
//!
//! * push BFS inspects every out-edge of every vertex that ever enters the
//!   frontier — i.e. Σ out_degree(v) over visited vertices;
//! * SSSP and CC take their work counts from the direction engine, so the
//!   sink's `edges_inspected` equals `relaxations` / `updates` on every
//!   plan — out-edges of push iterations plus in-edges scanned by pull
//!   iterations;
//! * the fused dedup bitmap suppresses duplicates *before* they reach a
//!   worker's buffer, so the asynchronous push's per-worker tallies sum to
//!   exactly `vertices_pushed`; the bulk-synchronous push runs on its
//!   caller and reports none.

use std::sync::Arc;

use essentials::prelude::*;
use essentials_algos::{bfs, cc, sssp};
use essentials_gen as gen;

/// The fixed-push plan: the traversal of the paper's listings, CSR only.
fn push() -> DirectionPolicy {
    DirectionPolicy::fixed(Direction::Push)
}

/// A context with `threads` requested workers and a fresh counters sink
/// attached. (`ESSENTIALS_THREADS` may override the requested count — the
/// references below are thread-count independent.)
fn observed(threads: usize) -> (Context, Arc<CountersSink>) {
    let ctx = Context::new(threads);
    let sink = Arc::new(CountersSink::new(ctx.pool().num_threads()));
    let ctx = ctx.with_obs(sink.clone() as Arc<dyn ObsSink>);
    (ctx, sink)
}

#[test]
fn bfs_edges_inspected_matches_visited_degree_sum() {
    let g: Graph<()> = Graph::from_coo(&gen::rmat(8, 8, gen::RmatParams::default(), 3));
    let (ctx, sink) = observed(4);
    let r = bfs::bfs(execution::par, &ctx, &g, 0, push());

    // Serial reference: every visited vertex enters the frontier exactly
    // once (the CAS claim) and has all its out-edges inspected there.
    let expected: u64 = g
        .vertices()
        .filter(|&v| r.level[v as usize] != bfs::UNVISITED)
        .map(|v| g.out_degree(v) as u64)
        .sum();
    assert!(
        expected > 0,
        "graph too sparse for the test to mean anything"
    );

    let t = sink.snapshot();
    assert_eq!(t.edges_inspected, expected);
    // The algorithm's own per-edge counter agrees with the operator-level
    // count.
    assert_eq!(t.edges_inspected as usize, r.edges_inspected);
    // One advance per superstep, one iteration span per superstep.
    assert_eq!(t.advance_calls as usize, r.stats.iterations);
    assert_eq!(t.iterations as usize, r.stats.iterations);
}

#[test]
fn sssp_edges_inspected_matches_relaxations() {
    let mut coo = gen::gnm(400, 2400, 9);
    coo.remove_self_loops();
    coo.symmetrize();
    coo.sort_and_dedup();
    let g: Graph<f32> = Graph::from_coo(&gen::hash_weights(&coo, 0.1, 2.0, 42));

    let (ctx, sink) = observed(4);
    let r = sssp::sssp(execution::par, &ctx, &g, 0, push());

    let t = sink.snapshot();
    // The relaxation lambda runs once per inspected edge — the two counts
    // are the same number measured at different layers.
    assert_eq!(t.edges_inspected as usize, r.relaxations);
    assert!(t.edges_inspected > 0);
    // Fused dedup: what the condition admitted, minus what the bitmap
    // suppressed, is what reached the output frontier.
    assert_eq!(t.vertices_pushed, t.edges_admitted - t.dedup_hits);
}

#[test]
fn sssp_and_cc_work_counts_are_the_sinks_edges_inspected_on_every_plan() {
    let mut coo = gen::gnm(400, 2400, 9);
    coo.remove_self_loops();
    coo.symmetrize();
    coo.sort_and_dedup();
    let g: Graph<f32> = GraphBuilder::from_coo(gen::hash_weights(&coo, 0.1, 2.0, 42))
        .with_csc()
        .build();
    for (plan, pulls) in [(push(), false), (DirectionPolicy::default(), true)] {
        let (ctx, sink) = observed(4);
        let r = sssp::sssp(execution::par, &ctx, &g, 0, plan);
        assert_eq!(
            sink.snapshot().edges_inspected as usize,
            r.relaxations,
            "{plan:?}"
        );

        let (ctx, sink) = observed(4);
        let r = cc::cc_label_propagation(execution::par, &ctx, &g, plan);
        assert_eq!(
            sink.snapshot().edges_inspected as usize,
            r.updates,
            "{plan:?}"
        );
        // CC opens on every vertex, so the default plan pulls first: its
        // count includes scanned in-edges, not just pushed ones.
        assert_eq!(r.directions[0].is_pull(), pulls, "{plan:?}");
    }
}

/// The bulk-synchronous push runs on its caller and pushes straight into
/// the output, so it reports no per-worker distribution at any width.
fn assert_bsp_push_reports_no_per_worker_tallies<F: Fn(&Context)>(run: F) {
    for threads in [1, 2, 4] {
        let (ctx, sink) = observed(threads);
        run(&ctx);
        let t = sink.snapshot();
        assert!(t.vertices_pushed > 0, "{threads} threads");
        assert_eq!(
            t.per_worker_pushes.iter().sum::<u64>(),
            0,
            "{threads} threads"
        );
    }
}

#[test]
fn per_worker_pushes_account_for_every_admitted_edge() {
    let g: Graph<()> = Graph::from_coo(&gen::rmat(9, 8, gen::RmatParams::default(), 5));
    assert_bsp_push_reports_no_per_worker_tallies(|ctx| {
        bfs::bfs(execution::par, ctx, &g, 0, push());
    });

    let (ctx, sink) = observed(4);
    let r = bfs::bfs(execution::par_nosync, &ctx, &g, 0, push());
    assert!(r.stats.iterations > 0);

    let t = sink.snapshot();
    let per_worker_total: u64 = t.per_worker_pushes.iter().sum();
    if ctx.pool().num_threads() > 1 {
        // Asynchronous expansion: each admitted edge lands in exactly one
        // worker's buffer before the drain. BFS's CAS condition admits each
        // vertex once, so there are no dedup hits to subtract.
        assert_eq!(t.dedup_hits, 0);
        assert_eq!(per_worker_total, t.vertices_pushed);
        assert_eq!(per_worker_total, t.edges_admitted);
    } else {
        // On one worker the push runs the caller's loop and reports no
        // per-worker distribution.
        assert_eq!(per_worker_total, 0);
    }
}

#[test]
fn unique_expand_tallies_are_post_dedup() {
    let mut coo = gen::gnm(300, 2000, 17);
    coo.remove_self_loops();
    coo.symmetrize();
    coo.sort_and_dedup();
    let g: Graph<f32> = Graph::from_coo(&gen::hash_weights(&coo, 0.1, 2.0, 7));
    assert_bsp_push_reports_no_per_worker_tallies(|ctx| {
        sssp::sssp(execution::par, ctx, &g, 0, push());
    });

    let (ctx, sink) = observed(4);
    sssp::sssp(execution::par_nosync, &ctx, &g, 0, push());

    let t = sink.snapshot();
    if ctx.pool().num_threads() > 1 {
        // neighbors_expand_unique runs the dedup bitmap *before* an edge
        // reaches a worker's buffer, so the per-worker tallies count what
        // actually landed in the output, and the suppressed duplicates show
        // up only in dedup_hits.
        let per_worker_total: u64 = t.per_worker_pushes.iter().sum();
        assert_eq!(per_worker_total, t.vertices_pushed);
        assert!(t.dedup_hits > 0, "graph too tree-like to exercise dedup");
    }
}

#[test]
fn reset_supports_back_to_back_measurements() {
    let g: Graph<()> = Graph::from_coo(&gen::rmat(7, 8, gen::RmatParams::default(), 1));
    let (ctx, sink) = observed(2);

    bfs::bfs(execution::par, &ctx, &g, 0, push());
    let first = sink.snapshot();
    sink.reset();
    bfs::bfs(execution::par, &ctx, &g, 0, push());
    let second = sink.snapshot();

    // Identical run on an identical graph: the machine-independent totals
    // match exactly (per-worker spread may differ with scheduling).
    assert_eq!(first.edges_inspected, second.edges_inspected);
    assert_eq!(first.vertices_pushed, second.vertices_pushed);
    assert_eq!(first.advance_calls, second.advance_calls);
}
