//! Single-source shortest paths — the paper's worked example (Listing 4).
//!
//! [`sssp`] is Listing 4 — a bulk-synchronous loop whose body is one
//! advance with an `atomic::min` distance relaxation in the user lambda —
//! run by the direction engine, so its plan may also pull (the push-only
//! literal lives in `tests/paper_listings.rs`). Beyond the listing, this
//! module provides
//! the asynchronous variant the paper's §III-A promises ([`sssp_async`] —
//! same relaxation, no barriers, queue quiescence as convergence), a
//! [`delta_stepping`] middle ground, and two sequential baselines
//! ([`dijkstra`], [`bellman_ford`]) used as oracles and speedup
//! denominators. [`verify_sssp`] checks the relaxation fixpoint directly.
//!
//! All variants require non-negative weights (validated NaN-free at graph
//! build time; negative weights are rejected by debug assertion here).

use essentials_core::prelude::*;
use essentials_parallel::atomics::{AtomicF32, CachePadded, Counter};
use essentials_parallel::run_async;
use std::sync::atomic::Ordering;

/// Distances plus run metadata.
#[derive(Debug, Clone)]
pub struct SsspResult {
    /// `dist[v]` = shortest distance from the source, `f32::INFINITY` if
    /// unreachable.
    pub dist: Vec<f32>,
    /// Loop statistics (iterations = supersteps for BSP; 1 for async).
    pub stats: LoopStats,
    /// Edge relaxations attempted (machine-independent work measure).
    pub relaxations: usize,
    /// Direction taken each iteration ([`sssp`] only; empty otherwise).
    pub directions: Vec<Direction>,
}

fn init_dist(n: usize, source: VertexId) -> Vec<AtomicF32> {
    (0..n)
        .map(|i| {
            AtomicF32::new(if i == source as usize {
                0.0
            } else {
                f32::INFINITY
            })
        })
        .collect()
}

fn unwrap_dist(dist: Vec<AtomicF32>) -> Vec<f32> {
    dist.into_iter().map(AtomicF32::into_inner).collect()
}

fn check_weights<G: OutWeights<f32>>(g: &G) {
    debug_assert!(
        (0..g.num_edges()).all(|e| g.edge_weight(e) >= 0.0),
        "SSSP requires non-negative weights"
    );
}

/// [`try_sssp`], panicking on an error.
///
/// ```
/// use essentials_core::prelude::*;
/// use essentials_algos::sssp::sssp;
///
/// let g: Graph<f32> = GraphBuilder::new(3)
///     .edges([(0, 1, 2.0), (1, 2, 2.0), (0, 2, 5.0)])
///     .build();
/// let ctx = Context::new(2);
/// let push = DirectionPolicy::fixed(Direction::Push);
/// let r = sssp(execution::par, &ctx, &g, 0, push);
/// assert_eq!(r.dist, vec![0.0, 2.0, 4.0]); // via 1, not the 5.0 edge
/// ```
pub fn sssp<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    source: VertexId,
    plan: DirectionPolicy,
) -> SsspResult
where
    P: ExecutionPolicy,
    G: OutWeights<f32> + InWeights<f32> + Sync,
{
    try_sssp(policy, ctx, g, source, plan).unwrap_or_else(|e| panic!("{e}"))
}

/// Parallel SSSP structured as Listing 4 — initialize distances → seed the
/// frontier → advance with the atomic-min relaxation until the frontier is
/// empty — with the advance run by [`try_advance_adaptive`]: `plan` picks
/// push (CSR only; duplicate activations are dropped as they are pushed)
/// or pull (needs the CSC) per iteration. Relaxation is monotone, so every
/// plan reaches the same least fixpoint, bit-for-bit on every
/// representation (`tests/differential.rs`). Budget and fault hooks fire at
/// iteration and chunk boundaries, a worker panic becomes
/// [`ExecError::WorkerPanic`], and the context stays reusable after any
/// error.
pub fn try_sssp<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    source: VertexId,
    plan: DirectionPolicy,
) -> Result<SsspResult, ExecError>
where
    P: ExecutionPolicy,
    G: OutWeights<f32> + InWeights<f32> + Sync,
{
    check_weights(g);
    // Initialize data.
    let dist = init_dist(g.num_vertices(), source);
    let relaxations = CachePadded(Counter::new());
    let mut engine = AdaptiveAdvance::new(
        g,
        AdaptiveConfig {
            policy: plan,
            ..AdaptiveConfig::default()
        },
    );
    // Main loop.
    let init = VertexFrontier::Sparse(SparseFrontier::single(source));
    let run = Enactor::for_ctx(ctx).try_run(init, |_, f| {
        try_advance_adaptive(
            policy,
            ctx,
            g,
            &mut engine,
            f,
            |_dst| true,
            // User-defined condition for SSSP.
            |src: VertexId, dst: VertexId, weight: f32| {
                relaxations.add(1);
                let new_d = dist[src as usize].load(Ordering::Acquire) + weight;
                // atomic::min atomically updates the distances vector at dst
                // with the minimum of new_d or its current value, then
                // returns the old value.
                let curr_d = dist[dst as usize].fetch_min(new_d, Ordering::AcqRel);
                new_d < curr_d
            },
        )
    });
    let (stats, directions) = engine.finish(ctx, run)?;
    Ok(SsspResult {
        dist: unwrap_dist(dist),
        stats,
        relaxations: relaxations.get(),
        directions,
    })
}

/// [`sssp`] with the default (direction-optimizing) plan. Kept as a name
/// because the frozen benchmark calls it with this signature.
pub fn sssp_adaptive<P, G>(policy: P, ctx: &Context, g: &G, source: VertexId) -> SsspResult
where
    P: ExecutionPolicy,
    G: OutWeights<f32> + InWeights<f32> + Sync,
{
    sssp(policy, ctx, g, source, DirectionPolicy::default())
}

/// Former name of [`sssp_adaptive`] on compressed adjacency; the frozen
/// benchmark still calls it.
pub use self::sssp_adaptive as sssp_adaptive_compressed;

/// Asynchronous SSSP (§III-A's `par_nosync` timing model applied to the
/// whole algorithm): active vertices drain through the work-queue engine; a
/// successful relaxation pushes the destination; the run ends at queue
/// quiescence. No barriers anywhere. Generally more total relaxations than
/// BSP (stale distances propagate), but every relaxation is monotone, so
/// the fixpoint — and thus the result — is identical.
pub fn sssp_async(ctx: &Context, g: &Graph<f32>, source: VertexId) -> SsspResult {
    check_weights(g);
    let n = g.get_num_vertices();
    let dist = init_dist(n, source);
    let relaxations = Counter::new();
    let async_stats = run_async(ctx.pool(), vec![source], |v: VertexId, pusher| {
        let dv = dist[v as usize].load(Ordering::Acquire);
        for e in g.get_edges(v) {
            let dst = g.get_dest_vertex(e);
            let w = g.get_edge_weight(e);
            relaxations.add(1);
            let new_d = dv + w;
            let curr_d = dist[dst as usize].fetch_min(new_d, Ordering::AcqRel);
            if new_d < curr_d {
                pusher.push(dst);
            }
        }
    });
    let stats = LoopStats {
        iterations: 1,
        frontier_trace: vec![async_stats.processed],
        hit_iteration_cap: false,
    };
    SsspResult {
        dist: unwrap_dist(dist),
        stats,
        relaxations: relaxations.get(),
        directions: Vec::new(),
    }
}

/// Δ-stepping (Meyer & Sanders): vertices are bucketed by `⌊dist/Δ⌋`;
/// buckets settle in order. *Light* edges (w < Δ) of a bucket are relaxed
/// repeatedly until it stabilizes; *heavy* edges once per settled bucket.
/// Interpolates between Dijkstra (Δ→0) and Bellman-Ford (Δ→∞); the inner
/// relaxations reuse the same policy-parallel `neighbors_expand` as
/// Listing 4.
pub fn delta_stepping<P: ExecutionPolicy>(
    policy: P,
    ctx: &Context,
    g: &Graph<f32>,
    source: VertexId,
    delta: f32,
) -> SsspResult {
    check_weights(g);
    assert!(delta > 0.0 && delta.is_finite(), "delta must be positive");
    let n = g.get_num_vertices();
    let dist = init_dist(n, source);
    let relaxations = Counter::new();
    let mut iterations = 0usize;
    let mut trace = Vec::new();

    let bucket_of =
        |v: VertexId| -> usize { (dist[v as usize].load(Ordering::Acquire) / delta) as usize };
    // Bucket storage recycles through a local free-list (drained buckets
    // park there; fresh buckets draw from it), and the per-round lists
    // below cycle through the context's pools, so once every bucket index
    // has been seen the loop runs without touching the allocator.
    let mut buckets: Vec<Vec<VertexId>> = vec![vec![source]];
    let mut spare: Vec<Vec<VertexId>> = Vec::new();
    let stash = |buckets: &mut Vec<Vec<VertexId>>, spare: &mut Vec<Vec<VertexId>>, v: VertexId| {
        let b = bucket_of(v);
        if b >= buckets.len() {
            buckets.resize_with(b + 1, Vec::new);
        }
        if buckets[b].capacity() == 0 {
            if let Some(recycled) = spare.pop() {
                buckets[b] = recycled;
            }
        }
        buckets[b].push(v);
    };

    // Relax only edges on the requested side of the light/heavy split;
    // dedup is fused into the push.
    let relax = |f: SparseFrontier, light: bool| -> SparseFrontier {
        let out = neighbors_expand_unique(policy, ctx, g, &f, |src, dst, _e, w| {
            if (w < delta) != light {
                return false;
            }
            relaxations.add(1);
            let new_d = dist[src as usize].load(Ordering::Acquire) + w;
            let curr_d = dist[dst as usize].fetch_min(new_d, Ordering::AcqRel);
            new_d < curr_d
        });
        ctx.recycle_frontier(f);
        out
    };

    // `active` and `settled` keep their capacity across buckets. The
    // storage `active` hands to `relax` returns through the context's
    // frontier pool, and each round's output frontier donates its storage
    // back (`into_vec`), closing the cycle.
    let mut active: Vec<VertexId> = ctx.take_u32_buffer();
    let mut settled: Vec<VertexId> = ctx.take_u32_buffer();
    let mut bi = 0;
    while bi < buckets.len() {
        if buckets[bi].is_empty() {
            bi += 1;
            continue;
        }
        settled.clear();
        // Light phase: iterate until no vertex re-enters bucket bi. Skip
        // stale entries (vertices whose distance improved into an earlier,
        // already-settled bucket keep their result; re-relaxing is merely
        // redundant, so filter on exact membership).
        let mut drained = std::mem::take(&mut buckets[bi]);
        active.clear();
        active.extend(drained.iter().copied().filter(|&v| bucket_of(v) == bi));
        drained.clear();
        spare.push(drained);
        active.sort_unstable();
        active.dedup();
        while !active.is_empty() {
            iterations += 1;
            trace.push(active.len());
            settled.extend(active.iter().copied());
            let improved = relax(SparseFrontier::from_vec(std::mem::take(&mut active)), true);
            // Partition in place: vertices still in this bucket become the
            // next round's active list (reusing the output frontier's
            // storage); the rest stash into their new buckets.
            let mut buf = improved.into_vec();
            buf.retain(|&v| {
                if bucket_of(v) == bi {
                    true
                } else {
                    stash(&mut buckets, &mut spare, v);
                    false
                }
            });
            active = buf;
        }
        // Heavy phase: once over everything settled in this bucket.
        settled.sort_unstable();
        settled.dedup();
        let heavy_improved = relax(
            SparseFrontier::from_vec(std::mem::take(&mut settled)),
            false,
        );
        let mut buf = heavy_improved.into_vec();
        for &v in &buf {
            stash(&mut buckets, &mut spare, v);
        }
        buf.clear();
        settled = buf;
        bi += 1;
    }
    for b in buckets.into_iter().chain(spare) {
        ctx.recycle_u32_buffer(b);
    }
    ctx.recycle_u32_buffer(active);
    ctx.recycle_u32_buffer(settled);

    SsspResult {
        dist: unwrap_dist(dist),
        stats: LoopStats {
            iterations,
            frontier_trace: trace,
            hit_iteration_cap: false,
        },
        relaxations: relaxations.get(),
        directions: Vec::new(),
    }
}

/// Edge-centric SSSP (§III-C's "set of active edges" frontier): each
/// iteration first materializes the active *edge* set of the improved
/// vertices (`expand_to_edges`), then relaxes those edges
/// (`advance_edges`). Same fixpoint as the vertex-centric Listing 4;
/// exists to exercise the edge-frontier half of the abstraction with a
/// real algorithm, and as the natural shape for edge-parallel hardware.
pub fn sssp_edge_centric<P: ExecutionPolicy>(
    policy: P,
    ctx: &Context,
    g: &Graph<f32>,
    source: VertexId,
) -> SsspResult {
    check_weights(g);
    let n = g.get_num_vertices();
    let dist = init_dist(n, source);
    let relaxations = Counter::new();
    let (_, stats) = Enactor::for_ctx(ctx).run(SparseFrontier::single(source), |_, f| {
        // Vertex frontier -> edge frontier -> relax -> vertex frontier.
        let active_edges = expand_to_edges(policy, ctx, g, &f);
        let out = advance_edges(policy, ctx, g, &active_edges, |src, dst, _e, w| {
            relaxations.add(1);
            let new_d = dist[src as usize].load(Ordering::Acquire) + w;
            let curr_d = dist[dst as usize].fetch_min(new_d, Ordering::AcqRel);
            new_d < curr_d
        });
        ctx.recycle_frontier(f);
        uniquify_with_bitmap(policy, ctx, &out, n)
    });
    SsspResult {
        dist: unwrap_dist(dist),
        stats,
        relaxations: relaxations.get(),
        directions: Vec::new(),
    }
}

/// Sequential Dijkstra with a binary heap — the classical oracle.
pub fn dijkstra(g: &Graph<f32>, source: VertexId) -> SsspResult {
    check_weights(g);
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = g.get_num_vertices();
    let mut dist = vec![f32::INFINITY; n];
    let mut relaxations = 0usize;
    let mut heap: BinaryHeap<Reverse<(ordered::F32, VertexId)>> = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(Reverse((ordered::F32(0.0), source)));
    let mut settled = 0usize;
    while let Some(Reverse((ordered::F32(d), v))) = heap.pop() {
        if d > dist[v as usize] {
            continue; // stale entry
        }
        settled += 1;
        for e in g.get_edges(v) {
            let dst = g.get_dest_vertex(e);
            let w = g.get_edge_weight(e);
            relaxations += 1;
            let nd = d + w;
            if nd < dist[dst as usize] {
                dist[dst as usize] = nd;
                heap.push(Reverse((ordered::F32(nd), dst)));
            }
        }
    }
    SsspResult {
        dist,
        stats: LoopStats {
            iterations: settled,
            frontier_trace: Vec::new(),
            hit_iteration_cap: false,
        },
        relaxations,
        directions: Vec::new(),
    }
}

/// Sequential Bellman-Ford over the edge list — the O(nm) baseline,
/// included as the second oracle (structurally closest to what the BSP
/// variant computes per superstep).
pub fn bellman_ford(g: &Graph<f32>, source: VertexId) -> SsspResult {
    check_weights(g);
    let n = g.get_num_vertices();
    let mut dist = vec![f32::INFINITY; n];
    dist[source as usize] = 0.0;
    let mut relaxations = 0usize;
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let mut changed = false;
        for v in 0..n as VertexId {
            let dv = dist[v as usize];
            if dv.is_infinite() {
                continue;
            }
            for e in g.get_edges(v) {
                let dst = g.get_dest_vertex(e);
                let w = g.get_edge_weight(e);
                relaxations += 1;
                if dv + w < dist[dst as usize] {
                    dist[dst as usize] = dv + w;
                    changed = true;
                }
            }
        }
        if !changed || rounds > n {
            break;
        }
    }
    SsspResult {
        dist,
        stats: LoopStats {
            iterations: rounds,
            frontier_trace: Vec::new(),
            hit_iteration_cap: false,
        },
        relaxations,
        directions: Vec::new(),
    }
}

/// Verifies the relaxation fixpoint directly (independent of any oracle):
/// `dist[source] == 0`; every edge satisfies `dist[dst] ≤ dist[src] + w`
/// (within `eps` of float slack); and every finite-distance vertex other
/// than the source has an in-edge that *witnesses* its distance.
pub fn verify_sssp(g: &Graph<f32>, source: VertexId, dist: &[f32], eps: f32) -> bool {
    if dist.len() != g.get_num_vertices() || dist[source as usize] != 0.0 {
        return false;
    }
    // No edge is over-relaxed.
    for v in g.vertices() {
        if dist[v as usize].is_infinite() {
            continue;
        }
        for e in g.get_edges(v) {
            let dst = g.get_dest_vertex(e);
            if dist[dst as usize] > dist[v as usize] + g.get_edge_weight(e) + eps {
                return false;
            }
        }
    }
    // Every finite distance is witnessed. (Scan edges once, tracking the
    // best witness per destination.)
    let mut witnessed = vec![false; dist.len()];
    witnessed[source as usize] = true;
    for v in g.vertices() {
        if dist[v as usize].is_infinite() {
            continue;
        }
        for e in g.get_edges(v) {
            let dst = g.get_dest_vertex(e) as usize;
            if (dist[v as usize] + g.get_edge_weight(e) - dist[dst]).abs() <= eps {
                witnessed[dst] = true;
            }
        }
    }
    dist.iter()
        .zip(&witnessed)
        .all(|(&d, &w)| d.is_infinite() || w)
}

/// Total-ordering wrapper for non-NaN f32 (keys in Dijkstra's heap).
mod ordered {
    /// An f32 known not to be NaN, with total ordering.
    #[derive(PartialEq, Clone, Copy, Debug)]
    pub struct F32(pub f32);
    impl Eq for F32 {}
    #[allow(clippy::derive_ord_xor_partial_ord)]
    impl PartialOrd for F32 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for F32 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.partial_cmp(&other.0).expect("NaN in ordered::F32")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_gen as gen;

    fn dist_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(&x, &y)| {
                (x.is_infinite() && y.is_infinite()) || (x - y).abs() <= 1e-4 * (1.0 + x.abs())
            })
    }

    fn push() -> DirectionPolicy {
        DirectionPolicy::fixed(Direction::Push)
    }

    fn test_graph() -> Graph<f32> {
        // Weighted RMAT with a grid mixed in via distinct tests.
        let coo = gen::rmat(9, 8, gen::RmatParams::default(), 11);
        Graph::from_coo(&gen::uniform_weights(&coo, 0.1, 2.0, 5))
    }

    #[test]
    fn every_plan_matches_fixed_push_exactly() {
        let ctx = Context::new(4);
        // R-MAT (skewed, where pull may fire) and a grid (stays push).
        let rmat = Graph::from_coo(&gen::uniform_weights(
            &gen::rmat(9, 8, gen::RmatParams::default(), 11),
            0.1,
            2.0,
            5,
        ))
        .with_csc();
        let grid =
            Graph::from_coo(&gen::uniform_weights(&gen::grid2d(20, 20), 0.1, 2.0, 9)).with_csc();
        for g in [&rmat, &grid] {
            let fixed = sssp(execution::par, &ctx, g, 0, push());
            assert!(fixed.directions.iter().all(|&d| d == Direction::Push));
            for plan in [
                DirectionPolicy::fixed(Direction::DensePush),
                DirectionPolicy::fixed(Direction::Pull),
                DirectionPolicy::default(),
            ] {
                // Monotone fetch_min: bit-identical least fixpoint, any mix
                // of directions.
                assert_eq!(sssp(execution::par, &ctx, g, 0, plan).dist, fixed.dist);
            }
        }
    }

    #[test]
    fn listing4_sssp_matches_dijkstra_on_diamond() {
        let g = Graph::from_coo(&Coo::from_edges(
            4,
            [(0, 1, 1.0), (0, 2, 4.0), (1, 3, 2.0), (2, 3, 1.0)],
        ));
        let ctx = Context::new(2);
        let r = sssp(execution::par, &ctx, &g, 0, push());
        assert_eq!(r.dist, vec![0.0, 1.0, 4.0, 3.0]);
        assert!(verify_sssp(&g, 0, &r.dist, 1e-6));
    }

    #[test]
    fn all_variants_agree_with_dijkstra_on_rmat() {
        let g = test_graph();
        let ctx = Context::new(4);
        let oracle = dijkstra(&g, 0);
        assert!(verify_sssp(&g, 0, &oracle.dist, 1e-4));
        let bsp_seq = sssp(execution::seq, &ctx, &g, 0, push());
        let bsp_par = sssp(execution::par, &ctx, &g, 0, push());
        let bsp_nosync = sssp(execution::par_nosync, &ctx, &g, 0, push());
        let asynch = sssp_async(&ctx, &g, 0);
        let delta = delta_stepping(execution::par, &ctx, &g, 0, 0.5);
        let bf = bellman_ford(&g, 0);
        let edge_centric = sssp_edge_centric(execution::par, &ctx, &g, 0);
        for (name, r) in [
            ("bsp_seq", &bsp_seq),
            ("bsp_par", &bsp_par),
            ("bsp_nosync", &bsp_nosync),
            ("async", &asynch),
            ("delta", &delta),
            ("bellman_ford", &bf),
            ("edge_centric", &edge_centric),
        ] {
            assert!(dist_eq(&oracle.dist, &r.dist), "{name} diverged");
            assert!(verify_sssp(&g, 0, &r.dist, 1e-3), "{name} fails fixpoint");
        }
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        // Two disconnected edges: 0->1, 2->3.
        let g = Graph::from_coo(&Coo::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]));
        let ctx = Context::sequential();
        let r = sssp(execution::par, &ctx, &g, 0, push());
        assert_eq!(r.dist[1], 1.0);
        assert!(r.dist[2].is_infinite());
        assert!(r.dist[3].is_infinite());
        assert!(verify_sssp(&g, 0, &r.dist, 1e-6));
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let g = Graph::from_coo(&Coo::from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)]));
        let ctx = Context::new(2);
        let r = sssp(execution::par, &ctx, &g, 0, push());
        assert_eq!(r.dist, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::from_coo(&Coo::<f32>::new(1));
        let ctx = Context::sequential();
        let r = sssp(execution::par, &ctx, &g, 0, push());
        assert_eq!(r.dist, vec![0.0]);
        assert_eq!(r.stats.iterations, 1); // one expand of the seed, then empty
    }

    #[test]
    fn grid_distances_match_manhattan_with_unit_weights() {
        let coo = gen::grid2d(8, 8);
        let g = Graph::from_coo(&gen::unit_weights(&coo));
        let ctx = Context::new(2);
        let r = sssp(execution::par, &ctx, &g, 0, push());
        // Vertex (r, c) is at Manhattan distance r + c from (0, 0).
        for row in 0..8 {
            for col in 0..8 {
                assert_eq!(r.dist[row * 8 + col], (row + col) as f32);
            }
        }
    }

    #[test]
    fn bsp_iteration_count_tracks_graph_depth() {
        let coo = gen::path(50);
        let g = Graph::from_coo(&gen::unit_weights(&coo));
        let ctx = Context::sequential();
        let r = sssp(execution::seq, &ctx, &g, 0, push());
        // A 50-vertex path needs 50 supersteps (49 hops + final empty check).
        assert_eq!(r.stats.iterations, 50);
    }

    #[test]
    fn delta_extremes_agree() {
        let g = test_graph();
        let ctx = Context::new(2);
        let tiny = delta_stepping(execution::par, &ctx, &g, 0, 0.05);
        let huge = delta_stepping(execution::par, &ctx, &g, 0, 1e9);
        assert!(dist_eq(&tiny.dist, &huge.dist));
    }

    #[test]
    fn verifier_rejects_wrong_distances() {
        let g = Graph::from_coo(&Coo::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]));
        assert!(!verify_sssp(&g, 0, &[0.0, 1.0, 5.0], 1e-6)); // over-estimate
        assert!(!verify_sssp(&g, 0, &[0.0, 0.5, 1.5], 1e-6)); // unwitnessed
        assert!(verify_sssp(&g, 0, &[0.0, 1.0, 2.0], 1e-6));
    }
}
