//! The paper's four listings, exercised end-to-end through the public API.
//! These tests pin the Rust spelling of each listing so refactors cannot
//! silently drift from the paper.

use std::sync::atomic::Ordering;

use essentials::prelude::*;
use essentials_gen as gen;
use essentials_parallel::atomics::{AtomicF32, Counter};

/// Listing 1: a CSR behind a graph-focused API.
#[test]
fn listing1_csr_graph_api() {
    // struct csr_t { rows, cols, row_offsets, column_indices, values }
    let csr = Csr::from_raw(vec![0, 2, 3, 3], vec![1, 2, 2], vec![0.5f32, 1.5, 2.5]);
    // struct graph_t : csr_t { float get_edge_weight(e) { return values[e] } }
    let g = Graph::from_csr(csr);
    assert_eq!(g.get_edge_weight(0), 0.5);
    assert_eq!(g.get_edge_weight(2), 2.5);
    assert_eq!(g.get_num_vertices(), 3);
    assert_eq!(g.get_dest_vertex(1), 2);
}

/// Listing 2: the sparse frontier with the paper's method names.
#[test]
fn listing2_sparse_frontier() {
    let mut f = SparseFrontier::new();
    assert_eq!(f.size(), 0);
    f.add_vertex(4);
    f.add_vertex(9);
    assert_eq!(f.size(), 2);
    assert_eq!(f.get_active_vertex(0), 4);
    assert_eq!(f.get_active_vertex(1), 9);
}

/// Listing 3 verbatim: a single mutex guards `output.add_vertex`. The
/// library's `neighbors_expand` replaces the lock with per-worker buffers;
/// this literal stays here to pin that both compute the same frontier.
fn neighbors_expand_mutex<P, W, F>(
    _policy: P,
    ctx: &Context,
    g: &Graph<W>,
    f: &SparseFrontier,
    condition: F,
) -> SparseFrontier
where
    P: ExecutionPolicy,
    W: EdgeValue,
    F: Fn(VertexId, VertexId, EdgeId, W) -> bool + Sync,
{
    let m = std::sync::Mutex::new(SparseFrontier::new());
    let expand = |v: VertexId| {
        // For all edges of vertex v.
        for e in g.get_edges(v) {
            let n = g.get_dest_vertex(e);
            let w = g.get_edge_weight(e);
            // If expand condition is true, add the neighbor into the
            // output frontier.
            if condition(v, n, e, w) {
                m.lock().unwrap().add_vertex(n);
            }
        }
    };
    if P::IS_PARALLEL {
        ctx.pool()
            .parallel_for(0..f.size(), Schedule::Dynamic(16), |i| {
                expand(f.get_active_vertex(i))
            });
    } else {
        for i in 0..f.size() {
            expand(f.get_active_vertex(i));
        }
    }
    // Synchronized here and return output.
    m.into_inner().unwrap()
}

/// Listing 3: `neighbors_expand` with execution policies — identical
/// results, different execution.
#[test]
fn listing3_neighbors_expand_policies() {
    let g: Graph<f32> = GraphBuilder::new(5)
        .edges([
            (0, 1, 1.0),
            (0, 2, 5.0),
            (1, 3, 1.0),
            (2, 4, 1.0),
            (3, 4, 9.0),
        ])
        .build();
    let ctx = Context::new(2);
    let f = SparseFrontier::from_vec(vec![0, 1, 3]);
    // Condition: only expand along edges lighter than 2.0.
    let cond = |_s: VertexId, _d: VertexId, _e: EdgeId, w: f32| w < 2.0;
    let mut seq = neighbors_expand(execution::seq, &ctx, &g, &f, cond);
    let mut par = neighbors_expand(execution::par, &ctx, &g, &f, cond);
    let mut nos = neighbors_expand(execution::par_nosync, &ctx, &g, &f, cond);
    let mut mux = neighbors_expand_mutex(execution::par, &ctx, &g, &f, cond);
    for out in [&mut seq, &mut par, &mut nos, &mut mux] {
        out.uniquify();
    }
    assert_eq!(seq.as_slice(), &[1, 3]);
    assert_eq!(seq, par);
    assert_eq!(seq, nos);
    assert_eq!(seq, mux);
}

/// Listing 4 verbatim: initialize distances → seed the frontier with the
/// source → while the frontier is not empty, `neighbors_expand` with the
/// atomic-min relaxation lambda. The library's `sssp` runs the same loop
/// through the direction engine, where this is the fixed-push plan; the
/// literal stays here to pin that both compute the same run. Returns the
/// distances, the relaxation count and the loop statistics.
fn listing4_sssp<P: ExecutionPolicy>(
    policy: P,
    ctx: &Context,
    g: &Graph<f32>,
    source: VertexId,
) -> Result<(Vec<f32>, usize, LoopStats), ExecError> {
    // Initialize data.
    let dist: Vec<AtomicF32> = (0..g.get_num_vertices())
        .map(|v| {
            AtomicF32::new(if v == source as usize {
                0.0
            } else {
                f32::INFINITY
            })
        })
        .collect();
    let relaxations = Counter::new();
    let mut f = SparseFrontier::new();
    f.add_vertex(source);
    // Main-loop.
    let (_, stats) = Enactor::for_ctx(ctx).try_run(f, |_, f| {
        // Expand the frontier; duplicates are filtered during the push.
        let out = try_neighbors_expand_unique(
            policy,
            ctx,
            g,
            &f,
            // User-defined condition for SSSP.
            |src: VertexId, dst: VertexId, _edge: EdgeId, weight: f32| {
                relaxations.add(1);
                let new_d = dist[src as usize].load(Ordering::Acquire) + weight;
                // atomic::min atomically updates the distances vector at dst
                // with the minimum of new_d or its current value, then
                // returns the old value.
                let curr_d = dist[dst as usize].fetch_min(new_d, Ordering::AcqRel);
                new_d < curr_d
            },
        )?;
        ctx.recycle_frontier(f);
        Ok(out)
    })?;
    let dist = dist.into_iter().map(AtomicF32::into_inner).collect();
    Ok((dist, relaxations.get(), stats))
}

/// Listing 4: the complete SSSP — init, seed, while-loop with
/// `neighbors_expand` + atomic-min relaxation, convergence on empty
/// frontier — and the library's push plan computes the same run.
#[test]
fn listing4_sssp_structure_and_result() {
    let g: Graph<f32> = GraphBuilder::new(4)
        .edges([(0, 1, 1.0), (0, 2, 4.0), (1, 2, 2.0), (2, 3, 1.0)])
        .build();
    let rmat = {
        let mut coo = gen::rmat(9, 8, gen::RmatParams::default(), 5);
        coo.remove_self_loops();
        coo.symmetrize();
        coo.sort_and_dedup();
        Graph::from_coo(&gen::hash_weights(&coo, 0.1, 2.0, 42))
    };
    let push = DirectionPolicy::fixed(Direction::Push);
    // One worker: the relaxation count is schedule dependent in parallel,
    // so exact agreement is asserted where the schedule is fixed.
    let ctx = Context::sequential();
    for g in [&g, &rmat] {
        let (dist, relaxations, stats) = listing4_sssp(execution::par, &ctx, g, 0).unwrap();
        let r = essentials::algos::sssp::sssp(execution::par, &ctx, g, 0, push);
        assert_eq!(r.dist, dist);
        assert_eq!(r.relaxations, relaxations);
        assert_eq!(r.stats.frontier_trace, stats.frontier_trace);
        // The loop ran until the frontier emptied (trace ends at 0) and did
        // not hit any cap.
        assert_eq!(*stats.frontier_trace.last().unwrap(), 0);
        assert!(!stats.hit_iteration_cap);
    }
    let (dist, _, _) = listing4_sssp(execution::par, &Context::new(2), &g, 0).unwrap();
    assert_eq!(dist, vec![0.0, 1.0, 3.0, 4.0]);
}
