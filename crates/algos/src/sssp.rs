//! Single-source shortest paths — the paper's worked example (Listing 4).
//!
//! [`sssp`] is Listing 4 — a bulk-synchronous loop whose body is one
//! advance with an `atomic::min` distance relaxation in the user lambda —
//! run by the direction engine, so its plan may also pull (the push-only
//! literal lives in `tests/paper_listings.rs`). [`delta_stepping`] is the
//! same loop in near–far order (Gunrock's two-level priority queue). This
//! module also provides the asynchronous variant the paper's §III-A
//! promises ([`sssp_async`] — same relaxation, no barriers, the frontier
//! held as the async engine's sharded work queue of §III-B; Table I's
//! async cell) and two sequential baselines ([`dijkstra`],
//! [`bellman_ford`]) used as oracles and speedup denominators.
//! [`verify_sssp`] checks the relaxation fixpoint directly.
//!
//! All variants require non-negative weights (validated NaN-free at graph
//! build time; negative weights are rejected by debug assertion here).

use essentials_core::prelude::*;
use essentials_parallel::atomics::{AtomicF32, Counter};
use essentials_parallel::try_run_async;
use std::sync::atomic::Ordering;

/// Distances plus run metadata.
#[derive(Debug, Clone)]
pub struct SsspResult {
    /// `dist[v]` = shortest distance from the source, `f32::INFINITY` if
    /// unreachable.
    pub dist: Vec<f32>,
    /// Loop statistics (iterations = supersteps for BSP; 1 for async).
    pub stats: LoopStats,
    /// Edge relaxations attempted (machine-independent work measure). For
    /// [`sssp`]: edges the direction engine inspected — out-edges of push
    /// iterations plus in-edges scanned by pull iterations, as
    /// [`crate::bfs::BfsResult::edges_inspected`].
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
/// push (duplicate activations are dropped as they are pushed) or pull
/// (push on a graph without an in-stream) per iteration. Relaxation is
/// monotone, so every plan reaches the same least fixpoint, bit-for-bit on
/// every representation (`tests/differential.rs`). Budget and fault hooks
/// fire at iteration and chunk boundaries, a worker panic becomes
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
    try_sssp_ordered(policy, ctx, g, source, plan, None)
}

/// [`try_delta_stepping`], panicking on an error (a non-positive Δ
/// included).
pub fn delta_stepping<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    source: VertexId,
    plan: DirectionPolicy,
    delta: f32,
) -> SsspResult
where
    P: ExecutionPolicy,
    G: OutWeights<f32> + InWeights<f32> + Sync,
{
    try_delta_stepping(policy, ctx, g, source, plan, delta).unwrap_or_else(|e| panic!("{e}"))
}

/// Δ-stepping (Meyer & Sanders) as an order of [`try_sssp`]'s loop: each
/// iteration advances the improved vertices of the current bucket
/// `⌊dist/Δ⌋`, later buckets wait in a far pile that refills near when it
/// drains, and plans, hooks and the bit-identical result are the loop's. A
/// non-positive or non-finite `delta` is [`ExecError::InvalidInput`].
pub fn try_delta_stepping<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    source: VertexId,
    plan: DirectionPolicy,
    delta: f32,
) -> Result<SsspResult, ExecError>
where
    P: ExecutionPolicy,
    G: OutWeights<f32> + InWeights<f32> + Sync,
{
    if !(delta > 0.0 && delta.is_finite()) {
        return Err(ExecError::InvalidInput {
            detail: format!("delta must be positive and finite, got {delta}"),
        });
    }
    try_sssp_ordered(policy, ctx, g, source, plan, Some(delta))
}

/// The one SSSP body: Listing 4's enacted loop, unordered (`delta` is
/// `None`) or in Δ-stepping's near–far order.
fn try_sssp_ordered<P, G>(
    policy: P,
    ctx: &Context,
    g: &G,
    source: VertexId,
    plan: DirectionPolicy,
    delta: Option<f32>,
) -> Result<SsspResult, ExecError>
where
    P: ExecutionPolicy,
    G: OutWeights<f32> + InWeights<f32> + Sync,
{
    check_weights(g);
    // Initialize data.
    let dist = init_dist(g.num_vertices(), source);
    let mut engine = AdaptiveAdvance::new(
        g,
        AdaptiveConfig {
            policy: plan,
            ..AdaptiveConfig::default()
        },
    );
    let mut order = delta.map(|delta| {
        let mut far = ctx.take_u32_buffer();
        far.reserve(dist.len()); // alloc-ok: once per run; `queued` keeps far within n
        NearFar {
            delta,
            bucket: 0,
            far,
            queued: ctx.take_dense_frontier(dist.len()),
        }
    });
    // Main loop.
    let init = VertexFrontier::Sparse(SparseFrontier::single(source));
    let run = Enactor::for_ctx(ctx).try_run(init, |_, f| {
        let improved = try_advance_adaptive(
            policy,
            ctx,
            g,
            &mut engine,
            f,
            |_dst| true,
            // User-defined condition for SSSP.
            |src: VertexId, dst: VertexId, weight: f32| {
                let new_d = dist[src as usize].load(Ordering::Acquire) + weight;
                // atomic::min atomically updates the distances vector at dst
                // with the minimum of new_d or its current value, then
                // returns the old value.
                let curr_d = dist[dst as usize].fetch_min(new_d, Ordering::AcqRel);
                new_d < curr_d
            },
        )?;
        match &mut order {
            None => Ok(improved),
            Some(order) => order.next(policy, ctx, improved, &dist),
        }
    });
    if let Some(order) = order {
        ctx.recycle_u32_buffer(order.far);
        ctx.recycle_dense_frontier(order.queued);
    }
    let relaxations = engine.edges_inspected();
    let (stats, directions) = engine.finish(ctx, run)?;
    Ok(SsspResult {
        dist: unwrap_dist(dist),
        stats,
        relaxations,
        directions,
    })
}

/// Δ-stepping's two-level priority queue: the enacted frontier is the near
/// pile; `far` holds each improved vertex whose bucket lay past `bucket`
/// once (`queued` marks it), stale entries included.
struct NearFar {
    delta: f32,
    bucket: u64,
    far: Vec<VertexId>,
    queued: DenseFrontier,
}

impl NearFar {
    /// Splits an advance's output into near (the next frontier) and far;
    /// an empty near rises to far's smallest bucket past the current one
    /// (entries at or below it are stale) and filters it out of far.
    fn next<P: ExecutionPolicy>(
        &mut self,
        policy: P,
        ctx: &Context,
        improved: VertexFrontier,
        dist: &[AtomicF32],
    ) -> Result<VertexFrontier, ExecError> {
        let (delta, bucket, far, queued) = (self.delta, self.bucket, &mut self.far, &self.queued);
        let bucket_of = |v: VertexId| (dist[v as usize].load(Ordering::Acquire) / delta) as u64;
        let mut defer = |v: VertexId| {
            if queued.insert(v) {
                far.push(v);
            }
        };
        let near = match improved {
            VertexFrontier::Sparse(s) => {
                let mut near = s.into_vec();
                near.retain(|&v| {
                    bucket_of(v) <= bucket || {
                        defer(v);
                        false
                    }
                });
                VertexFrontier::Sparse(SparseFrontier::from_vec(near))
            }
            VertexFrontier::Dense(near) => {
                near.for_each_active(|v| {
                    if bucket_of(v) > bucket {
                        defer(v);
                        near.remove(v);
                    }
                });
                VertexFrontier::Dense(near)
            }
        };
        if !near.is_empty() {
            return Ok(near);
        }
        let live = far.iter().map(|&v| bucket_of(v)).filter(|&b| b > bucket);
        let Some(next) = live.min() else {
            return Ok(near);
        };
        match near {
            VertexFrontier::Sparse(s) => ctx.recycle_frontier(s),
            VertexFrontier::Dense(d) => ctx.recycle_dense_frontier(d),
        }
        self.bucket = next;
        let pile = SparseFrontier::from_vec(std::mem::take(far));
        let near = try_filter(policy, ctx, &pile, |v| bucket_of(v) == next);
        *far = pile.into_vec();
        let near = near?;
        // The bucket's own entries and the stale ones leave far, unmarked.
        far.retain(|&v| bucket_of(v) > next || !queued.remove(v));
        Ok(VertexFrontier::Sparse(near))
    }
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
///
/// The engine consults the context's chunk hooks before every popped
/// vertex, so a cancellation, deadline or injected fault stops the drain;
/// the error panics here with its message, as [`sssp`] does.
pub fn sssp_async(ctx: &Context, g: &Graph<f32>, source: VertexId) -> SsspResult {
    check_weights(g);
    let n = g.get_num_vertices();
    let dist = init_dist(n, source);
    let relaxations = Counter::new();
    let async_stats = try_run_async(
        ctx.pool(),
        vec![source],
        ctx.chunk_hooks(),
        |v: VertexId, pusher| {
            let dv = dist[v as usize].load(Ordering::Acquire);
            // One add per popped vertex: every out-edge below is relaxed.
            relaxations.add(g.out_degree(v));
            for e in g.get_edges(v) {
                let dst = g.get_dest_vertex(e);
                let w = g.get_edge_weight(e);
                let new_d = dv + w;
                let curr_d = dist[dst as usize].fetch_min(new_d, Ordering::AcqRel);
                if new_d < curr_d {
                    pusher.push(dst);
                }
            }
        },
    )
    .unwrap_or_else(|e| panic!("{e}"));
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
        let delta = delta_stepping(execution::par, &ctx, &g, 0, push(), 0.5);
        let bf = bellman_ford(&g, 0);
        for (name, r) in [
            ("bsp_seq", &bsp_seq),
            ("bsp_par", &bsp_par),
            ("bsp_nosync", &bsp_nosync),
            ("async", &asynch),
            ("delta", &delta),
            ("bellman_ford", &bf),
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
        let bsp = sssp(execution::par, &ctx, &g, 0, push()).dist;
        for delta in [0.05, 1e9] {
            let r = delta_stepping(execution::par, &ctx, &g, 0, push(), delta);
            assert_eq!(r.dist, bsp, "delta {delta}");
        }
    }

    #[test]
    fn verifier_rejects_wrong_distances() {
        let g = Graph::from_coo(&Coo::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]));
        assert!(!verify_sssp(&g, 0, &[0.0, 1.0, 5.0], 1e-6)); // over-estimate
        assert!(!verify_sssp(&g, 0, &[0.0, 0.5, 1.5], 1e-6)); // unwitnessed
        assert!(verify_sssp(&g, 0, &[0.0, 1.0, 2.0], 1e-6));
    }
}
