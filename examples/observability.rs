//! Observability: watching an algorithm work without touching it.
//!
//! Attaches a `TeeSink` fanning out to a `CountersSink` (exact work
//! totals, per-worker load-balance skew) and a `TraceSink` (every
//! operator call and iteration span, in order) to the `Context`, runs BFS
//! on the direction-optimizing plan and SSSP on the fixed-push plan under
//! the asynchronous policy (the push that spreads over workers), and
//! renders what the sinks saw — including the push→pull switch decisions
//! of the α/β heuristic.
//!
//! The same algorithms run unmodified: observability rides on the context,
//! so no algorithm code knows whether anyone is watching (and with no sink
//! attached the hooks cost one `None` check per operator call).
//!
//! Run: `cargo run --release --example observability`

use std::sync::Arc;

use essentials::prelude::*;
use essentials_algos::{bfs, sssp};
use essentials_core::obs::Record;
use essentials_gen as gen;

fn main() {
    let g = GraphBuilder::from_coo(gen::rmat(10, 8, gen::RmatParams::default(), 42))
        .remove_self_loops()
        .symmetrize()
        .deduplicate()
        .with_csc()
        .build();
    let wg = {
        let mut coo = gen::rmat(10, 8, gen::RmatParams::default(), 42);
        coo.remove_self_loops();
        coo.symmetrize();
        coo.sort_and_dedup();
        let mut wg = Graph::from_coo(&gen::hash_weights(&coo, 0.1, 2.0, 7));
        wg.ensure_csc();
        wg
    };
    println!(
        "graph: {} vertices, {} edges\n",
        g.get_num_vertices(),
        g.get_num_edges()
    );

    // The whole observability setup: two sinks behind one tee, one builder
    // call on the context.
    let ctx = Context::new(4);
    let counters = Arc::new(CountersSink::new(ctx.pool().num_threads()));
    let trace = Arc::new(TraceSink::new());
    let ctx = ctx.with_obs(Arc::new(
        TeeSink::new()
            .with(counters.clone() as Arc<dyn ObsSink>)
            .with(trace.clone() as Arc<dyn ObsSink>),
    ));

    trace.mark("bfs");
    let r = bfs::bfs(execution::par, &ctx, &g, 0, DirectionPolicy::default());
    trace.mark("sssp");
    let push = DirectionPolicy::fixed(Direction::Push);
    sssp::sssp(execution::par_nosync, &ctx, &wg, 0, push);

    // The trace knows *when* things happened: print the direction each BFS
    // iteration chose and what the β rule saw (the SSSP run after the mark
    // pushes every iteration by its plan).
    println!("direction decisions (BFS):");
    let records = trace.records();
    let bfs_records = records
        .iter()
        .take_while(|rec| **rec != Record::Mark("sssp".into()));
    for rec in bfs_records {
        if let Record::Direction(d) = rec {
            println!(
                "  iter {:>2}: frontier {:>5} vertices / {:>6} edges, {:>6} unexplored -> {}",
                d.iteration,
                d.frontier_len,
                d.frontier_edges,
                d.unexplored_edges,
                if d.pull { "PULL" } else { "push" }
            );
        }
    }
    let pulls = r
        .directions
        .iter()
        .filter(|&&d| d == bfs::Direction::Pull)
        .count();
    println!("  ({pulls} of {} iterations pulled)\n", r.directions.len());

    // The summary folds the trace into the headline numbers.
    println!("trace summary (both algorithms):");
    println!("{}\n", Summary::from_records(&trace.records()).render());

    // The counters know *how much* happened, exactly.
    let t = counters.snapshot();
    println!("counter totals:");
    println!("  advance calls    {:>8}", t.advance_calls);
    println!("  edges inspected  {:>8}", t.edges_inspected);
    println!("  edges admitted   {:>8}", t.edges_admitted);
    println!("  vertices pushed  {:>8}", t.vertices_pushed);
    println!("  dedup hits       {:>8}", t.dedup_hits);
    // Only the asynchronous push fills per-worker buffers; the
    // bulk-synchronous one runs on its caller and reports none.
    println!(
        "  per-worker pushes {:?} (skew {:.3})",
        t.per_worker_pushes,
        t.skew_ratio()
    );
}
