//! Adaptive direction engine: per-iteration choice of sparse-push,
//! dense-push, or pull (§III-C made an *execution-policy* concern).
//!
//! The paper argues that traversal direction and frontier representation are
//! choices the operator layer should make per iteration, not per algorithm.
//! A [`DirectionPolicy`] is that choice as a value — a *plan*: the Beamer
//! α/β heuristic by default, or one direction for every iteration
//! ([`DirectionPolicy::fixed`]), so fixed push, dense push and pull are plan
//! values rather than separate algorithms. [`try_advance_adaptive`] is the
//! entry point that consults it each iteration, converts the frontier
//! representation to match the chosen kernel, and dispatches to
//! [`try_neighbors_expand`] / [`try_neighbors_expand_unique`]
//! (sparse-push), [`try_expand_push_dense`] (dense-push), or the pull
//! expansions. Algorithms supply one candidate predicate and one
//! `condition(src, dst, w)` — the push and the pull view of the same
//! monotone update — and the engine owns everything else: the decision, the
//! representation switches, the unexplored-edge bookkeeping, recycling spent
//! frontiers through the [`Context`] pools, emitting [`DirectionEvent`]s so
//! switches stay observable, and the chunk hooks (budget, fault plan, panic
//! capture) of whichever kernel runs.
//!
//! For settle-style algorithms (BFS: an admitted vertex never becomes a
//! candidate again), the engine additionally maintains an
//! *unvisited-candidates* bitmap and routes pull iterations through
//! [`try_expand_pull_masked`], so late pull scans skip all-zero words and
//! settled destinations instead of probing the candidate predicate for all
//! `n` vertices.
//!
//! A graph without an in-stream ([`InAdjacency::has_in_edges`] is false: a
//! [`Graph`](essentials_graph::Graph) built without `with_csc`, a compressed
//! container written without its transpose) cannot pull. The engine asks
//! once per run — in [`AdaptiveAdvance::new`] and
//! [`DirectionPolicy::full_frontier`] — and every pull-family choice of any
//! plan then runs as push, recorded as such in the direction trace.

use essentials_frontier::{convert, DenseFrontier, Frontier, SparseFrontier, VertexFrontier};
use essentials_graph::{EdgeValue, InAdjacency, InWeights, OutWeights, VertexId};
use essentials_obs::DirectionEvent;
use essentials_parallel::{ExecError, ExecutionPolicy, Schedule};

use crate::context::Context;
use crate::enactor::{LoopStats, TRACE_RESERVE};
use crate::operators::advance::{
    try_expand_pull_counted, try_expand_pull_masked, try_expand_push_dense, try_neighbors_expand,
    try_neighbors_expand_unique, PullConfig,
};
use crate::operators::blocked::{try_expand_blocked_pull, BlockedConfig};
use crate::operators::try_for_with;

/// Mask words per chunk of the unvisited-mask build: 1,024 candidate
/// probes, so an n = 2^16 mask splits into 64 chunks.
const MASK_GRAIN: usize = 16;
/// Frontier entries per chunk of the sparse → dense conversion.
const CONVERT_GRAIN: usize = 4096;

/// Traversal direction (and output representation) of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Frontier scatters over out-edges into a sparse output.
    Push,
    /// Frontier scatters over out-edges into a dense (bitmap) output —
    /// same edge work as [`Direction::Push`], but insertion is idempotent
    /// and the large output needs no dedup pass.
    DensePush,
    /// Candidates gather over in-edges (dense input and output).
    Pull,
    /// Pull routed through destination-binned propagation blocking
    /// ([`try_expand_blocked_pull`]) — same semantics as [`Direction::Pull`],
    /// for frontiers dense enough that binning's streaming passes beat the
    /// CSC scan's random candidate probes. Only a fixed plan picks it.
    BlockedPull,
}

impl Direction {
    /// Push-family (scatter over out-edges) vs. pull. The α/β hysteresis
    /// flips between *families*; the sparse/dense push split inside the push
    /// family — and the plain/blocked split inside the pull family — are
    /// pure execution choices.
    #[inline]
    pub fn is_pull(self) -> bool {
        matches!(self, Direction::Pull | Direction::BlockedPull)
    }
}

/// The per-iteration quantities a [`DirectionPolicy`] decides from.
#[derive(Debug, Clone, Copy)]
pub struct PolicyInputs {
    /// Vertex-universe size.
    pub n: usize,
    /// Active vertices this iteration.
    pub frontier_len: usize,
    /// Out-edges of the frontier (the α numerator).
    pub frontier_edges: usize,
    /// The α denominator: edges not yet retired by any earlier frontier in
    /// settle mode, where a pull skips claimed vertices; every edge
    /// otherwise, because a non-settle pull scans all in-edges.
    pub unexplored_edges: usize,
    /// Whether the frontier grew since the previous iteration.
    pub growing: bool,
    /// Direction of the previous iteration.
    pub current: Direction,
}

/// Push→pull when `growing && frontier_edges > unexplored_edges / ALPHA`.
const ALPHA: usize = 14;
/// Pull→push when `frontier_len < n / BETA`.
const BETA: usize = 24;
/// Dense push (bitmap output) when `frontier_len >= n / GAMMA`.
const GAMMA: usize = 4;

/// The Beamer α/β direction heuristic, hoisted out of BFS into a reusable
/// policy any frontier-driven algorithm consults per iteration. α = 14,
/// β = 24 and γ = 4 are constants (Beamer et al.'s tuning); a plan chooses
/// only whether to fix one direction.
///
/// * **α rule** (while pushing): switch to pull when the frontier is still
///   growing and its out-edge mass exceeds `unexplored_edges / α` — the
///   scatter is about to touch a large fraction of what remains, so
///   gathering over candidates is cheaper.
/// * **β rule** (while pulling): fall back to push when the frontier drops
///   below `n / β` — the candidate scan no longer pays for itself on the
///   shrinking tail.
/// * **γ rule** (representation, inside the push family): emit a dense
///   bitmap output when the frontier holds at least `n / γ` vertices, so
///   large push iterations get idempotent insertion instead of a dedup pass.
///
/// The asymmetry of α and β is itself hysteresis: the pull-entry and
/// pull-exit thresholds differ, so a frontier near one boundary does not
/// flip back at the next iteration.
///
/// A policy with `fixed` set skips every rule and runs that direction each
/// iteration ([`DirectionPolicy::fixed`]); [`Direction::BlockedPull`] is
/// reached only that way. On a graph without an in-stream any pull-family
/// choice runs as the push family instead (module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectionPolicy {
    /// The direction every iteration takes, bypassing the rules above.
    /// `None` (the default) decides per iteration.
    pub fixed: Option<Direction>,
}

impl DirectionPolicy {
    /// The plan that runs every iteration in direction `d`: fixed push
    /// (the pull side is never touched), fixed dense push, or fixed pull
    /// (push on a graph without an in-stream). A fixed
    /// [`Direction::BlockedPull`] degrades to plain pull outside settle
    /// mode.
    /// For a full-frontier gather ([`Self::full_frontier`]: PageRank, HITS)
    /// `Push` / `DensePush` mean an atomic scatter along out-edges, `Pull`
    /// the in-adjacency scan, and `BlockedPull` a
    /// [`BlockedGather`](crate::operators::blocked::BlockedGather) layout
    /// built once per run.
    pub fn fixed(d: Direction) -> Self {
        DirectionPolicy { fixed: Some(d) }
    }

    /// The direction of a full-frontier gather over `g`, chosen once per
    /// run: [`Direction::Push`] — the scatter, a full frontier's one push
    /// kernel — for a push-family plan or a graph without an in-stream,
    /// else a fixed plan's pull direction, or pull by default.
    pub fn full_frontier<G: InAdjacency>(&self, g: &G) -> Direction {
        match self.fixed {
            _ if !g.has_in_edges() => Direction::Push,
            Some(d) if d.is_pull() => d,
            Some(_) => Direction::Push,
            None => Direction::Pull,
        }
    }

    /// Picks the direction (and push representation) for one iteration.
    pub fn decide(&self, s: &PolicyInputs) -> Direction {
        if let Some(d) = self.fixed {
            return d;
        }
        let pull = if s.current.is_pull() {
            // β rule: keep pulling while the frontier covers enough of the
            // universe for the candidate scan to amortize.
            s.frontier_len >= s.n / BETA
        } else {
            // α rule: only a still-growing frontier justifies the flip —
            // the shrinking tail on high-diameter graphs stays push.
            s.growing && s.frontier_edges > s.unexplored_edges / ALPHA
        };
        if pull {
            Direction::Pull
        } else {
            push_family(s.frontier_len, s.n)
        }
    }
}

/// The γ rule: dense push for a frontier of at least `n / GAMMA` vertices,
/// sparse push below.
fn push_family(frontier_len: usize, n: usize) -> Direction {
    if n > 0 && frontier_len.saturating_mul(GAMMA) >= n {
        Direction::DensePush
    } else {
        Direction::Push
    }
}

/// Configuration of an adaptive advance loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdaptiveConfig {
    /// The direction heuristic.
    pub policy: DirectionPolicy,
    /// Pull scans stop at the first admitting in-edge (correct for
    /// reachability-style conditions like BFS; wrong for conditions that
    /// must see every edge, like SSSP relaxation).
    pub early_exit: bool,
    /// Admitted vertices never become pull candidates again (BFS-style).
    /// Enables the unvisited-candidates bitmap: pull iterations go through
    /// the masked word-parallel scan, and each iteration's output is retired
    /// from the mask 64 bits at a time.
    pub settle: bool,
}

/// Cross-iteration state of one adaptive traversal: whether the graph can
/// pull, the policy inputs that persist between iterations (unexplored-edge
/// mass, previous length, current direction), the optional unvisited mask,
/// and the decision trace.
pub struct AdaptiveAdvance {
    cfg: AdaptiveConfig,
    can_pull: bool,
    n: usize,
    unexplored_edges: usize,
    prev_len: usize,
    iter: usize,
    current: Direction,
    /// Unvisited-candidates mask (settle mode only), built lazily from the
    /// candidate predicate at the first pull iteration.
    unvisited: Option<DenseFrontier>,
    directions: Vec<Direction>,
    edges: usize,
}

impl AdaptiveAdvance {
    /// Fresh engine state for a traversal of `g`. Whether `g` has an
    /// in-stream is read here, once: without one, every iteration the plan
    /// would pull runs as the push family the γ rule picks.
    pub fn new<G: InAdjacency>(g: &G, cfg: AdaptiveConfig) -> Self {
        AdaptiveAdvance {
            cfg,
            can_pull: g.has_in_edges(),
            n: g.num_vertices(),
            unexplored_edges: g.num_edges(),
            prev_len: 0,
            iter: 0,
            current: Direction::Push,
            unvisited: None,
            directions: Vec::with_capacity(TRACE_RESERVE), // alloc-ok: once per run
            edges: 0,
        }
    }

    /// Edges inspected so far: out-edges evaluated by push iterations plus
    /// in-edges scanned by pull iterations — the machine-independent work
    /// measure fixed-direction variants report.
    pub fn edges_inspected(&self) -> usize {
        self.edges
    }

    /// Ends the traversal on every path: returns the unvisited mask and —
    /// when the enacted loop finished — its final frontier to the context's
    /// pools, and hands back the loop statistics with the per-iteration
    /// direction trace (or the loop's error).
    pub fn finish(
        mut self,
        ctx: &Context,
        run: Result<(VertexFrontier, LoopStats), ExecError>,
    ) -> Result<(LoopStats, Vec<Direction>), ExecError> {
        if let Some(mask) = self.unvisited.take() {
            ctx.recycle_dense_frontier(mask);
        }
        let (last, stats) = run?;
        match last {
            VertexFrontier::Sparse(s) => ctx.recycle_frontier(s),
            VertexFrontier::Dense(d) => ctx.recycle_dense_frontier(d),
        }
        Ok((stats, self.directions))
    }

    /// The unvisited mask, built from `candidate` on first use (settle
    /// mode): one word of 64 candidate probes per item, ORed in whole, on
    /// the pool when the n vertex slots pay for a region, and one `recount`
    /// after. The build runs under the context's chunk hooks; on an error
    /// the mask goes back to the context's pool.
    fn ensure_unvisited<P, C>(
        &mut self,
        ctx: &Context,
        candidate: &C,
    ) -> Result<&DenseFrontier, ExecError>
    where
        P: ExecutionPolicy,
        C: Fn(VertexId) -> bool + Sync,
    {
        if self.unvisited.is_none() {
            // Parked in `self.unvisited` for the traversal's lifetime;
            // `finish()` recycles it when the loop exits.
            let mask = ctx.take_dense_frontier(self.n); // lease-ok: parked in self.unvisited until finish(), recycled below on error
            let (n, bits) = (self.n, mask.bits());
            let words = bits.num_words();
            let run =
                try_for_with::<P, _>(ctx, 0..words, Schedule::Dynamic(MASK_GRAIN), n, |_, wi| {
                    let lo = wi * 64;
                    let mut word = 0u64;
                    for v in lo..(lo + 64).min(n) {
                        if candidate(v as VertexId) {
                            word |= 1 << (v - lo);
                        }
                    }
                    if word != 0 {
                        bits.or_word(wi, word);
                    }
                });
            if let Err(e) = run {
                ctx.recycle_dense_frontier(mask);
                return Err(e);
            }
            mask.recount();
            self.unvisited = Some(mask);
        }
        Ok(self.unvisited.as_ref().unwrap()) // unwrap-ok: set to Some directly above
    }
}

/// One adaptive advance: consults the policy, converts the frontier to the
/// chosen kernel's representation, expands, maintains the engine state, and
/// returns the next frontier. The spent input recycles through the context's
/// sparse/dense pools, so steady-state iterations of every direction perform
/// zero heap allocations.
///
/// `condition(src, dst, w)` is evaluated once per out-edge of the frontier
/// on push iterations and once per scanned in-edge from an active source on
/// pull iterations; `candidate(dst)` gates which destinations a pull scans
/// (and seeds the unvisited mask in settle mode). For the result to be
/// direction-independent the condition must be a monotone update — BFS's
/// claim-by-CAS, SSSP/CC's `fetch_min` — whose push and pull views coincide.
///
/// Every kernel runs under the context's chunk hooks. On an error — budget
/// stop, injected fault, panicking condition — the kernel has already
/// returned its output storage, a dense input goes back to the pool (a
/// sparse one is dropped), and [`AdaptiveAdvance::finish`] recycles the
/// unvisited mask, so the context is fully reusable.
pub fn try_advance_adaptive<P, G, W, C, F>(
    policy: P,
    ctx: &Context,
    g: &G,
    engine: &mut AdaptiveAdvance,
    frontier: VertexFrontier,
    candidate: C,
    condition: F,
) -> Result<VertexFrontier, ExecError>
where
    P: ExecutionPolicy,
    G: OutWeights<W> + InWeights<W> + Sync,
    W: EdgeValue,
    C: Fn(VertexId) -> bool + Sync,
    F: Fn(VertexId, VertexId, W) -> bool + Sync,
{
    let n = engine.n;
    let len = frontier.len();
    let growing = len > engine.prev_len;
    engine.prev_len = len;

    // Frontier out-edge mass: the α numerator, and the amount this
    // iteration retires from the unexplored pool (settle mode only: a
    // non-settle pull scans every in-edge, however many earlier frontiers
    // retired, so its price stays all m). O(len) either way — the
    // dense side uses the word-parallel scan — and degree lookups only, so
    // nothing is decoded on compressed adjacency.
    let frontier_edges = match &frontier {
        VertexFrontier::Sparse(s) => s.iter().map(|v| g.out_degree(v)).sum(),
        VertexFrontier::Dense(d) => {
            let mut total = 0usize;
            d.for_each_active(|v| total += g.out_degree(v));
            total
        }
    };

    let mut dir = engine.cfg.policy.decide(&PolicyInputs {
        n,
        frontier_len: len,
        frontier_edges,
        unexplored_edges: engine.unexplored_edges,
        growing,
        current: engine.current,
    });
    // Without an in-stream a pull runs as the push family. The blocked
    // kernel flushes against a candidate *bitmap*; without settle mode
    // there is none (candidacy is a predicate), so a blocked plan quietly
    // degrades to the plain CSC pull.
    if dir.is_pull() && !engine.can_pull {
        dir = push_family(len, n);
    } else if dir == Direction::BlockedPull && !engine.cfg.settle {
        dir = Direction::Pull;
    }
    engine.current = dir;
    engine.directions.push(dir);
    if let Some(sink) = ctx.obs() {
        sink.on_direction(&DirectionEvent {
            iteration: engine.iter,
            frontier_len: len,
            // By convention the event carries the α-side quantity only when
            // the frontier arrived sparse (matching the original DO-BFS).
            frontier_edges: match &frontier {
                VertexFrontier::Sparse(_) => frontier_edges,
                VertexFrontier::Dense(_) => 0,
            },
            unexplored_edges: engine.unexplored_edges,
            growing,
            pull: dir.is_pull(),
        });
    }
    if engine.cfg.settle {
        engine.unexplored_edges = engine.unexplored_edges.saturating_sub(frontier_edges);
    }
    engine.iter += 1;

    match dir {
        Direction::Push | Direction::DensePush => {
            // Push kernels take a sparse input; a dense frontier converts
            // word-at-a-time into a recycled vector.
            let sparse = match frontier {
                VertexFrontier::Sparse(s) => s,
                VertexFrontier::Dense(d) => {
                    let mut scratch = ctx.take_scratch();
                    let mut v = scratch.take_vec();
                    ctx.put_scratch(scratch);
                    convert::dense_to_sparse_into(&d, &mut v);
                    ctx.recycle_dense_frontier(d);
                    SparseFrontier::from_vec(v)
                }
            };
            // Both push kernels evaluate the condition once per out-edge.
            engine.edges += frontier_edges;
            let push = |src, dst, _e, w| condition(src, dst, w);
            let out = if dir == Direction::DensePush {
                try_expand_push_dense(policy, ctx, g, &sparse, push).map(VertexFrontier::Dense)
            } else if engine.cfg.settle {
                // A settling condition admits each vertex once by itself,
                // so the fused dedup bitmap would never fire.
                try_neighbors_expand(policy, ctx, g, &sparse, push).map(VertexFrontier::Sparse)
            } else {
                try_neighbors_expand_unique(policy, ctx, g, &sparse, push)
                    .map(VertexFrontier::Sparse)
            };
            // A failed iteration drops its input instead of parking it: an
            // undersized vector on top of the pool would become the next
            // expansion's output and regrow there.
            let out = out?;
            ctx.recycle_frontier(sparse);
            if let Some(mask) = &engine.unvisited {
                match &out {
                    VertexFrontier::Sparse(s) => {
                        for &v in s.as_slice() {
                            mask.remove(v);
                        }
                    }
                    VertexFrontier::Dense(d) => mask.and_not(d),
                }
            }
            Ok(out)
        }
        Direction::Pull | Direction::BlockedPull => {
            let dense = match frontier {
                VertexFrontier::Sparse(s) => {
                    // Bare bit sets, on the pool when the frontier pays for
                    // a region, and one `recount` after.
                    let d = ctx.take_dense_frontier(n);
                    let (verts, bits) = (s.as_slice(), d.bits());
                    let schedule = Schedule::Dynamic(CONVERT_GRAIN);
                    let run =
                        try_for_with::<P, _>(ctx, 0..verts.len(), schedule, verts.len(), |_, i| {
                            bits.set(verts[i] as usize);
                        });
                    ctx.recycle_frontier(s);
                    if let Err(e) = run {
                        ctx.recycle_dense_frontier(d);
                        return Err(e);
                    }
                    d.recount();
                    d
                }
                VertexFrontier::Dense(d) => d,
            };
            let pull_cfg = PullConfig {
                early_exit: engine.cfg.early_exit,
            };
            let out = if engine.cfg.settle {
                // The mask reflects candidacy at iteration entry; outputs
                // retire from it below, keeping it exact. (Blocked pull is
                // only ever chosen here: see the downgrade above.)
                let mask = match engine.ensure_unvisited::<P, _>(ctx, &candidate) {
                    Ok(mask) => mask,
                    Err(e) => {
                        ctx.recycle_dense_frontier(dense);
                        return Err(e);
                    }
                };
                if dir == Direction::BlockedPull {
                    let bins = BlockedConfig::default();
                    try_expand_blocked_pull(
                        policy, ctx, g, &dense, mask, pull_cfg, bins, &condition,
                    )
                } else {
                    try_expand_pull_masked(policy, ctx, g, &dense, mask, pull_cfg, &condition)
                }
            } else {
                try_expand_pull_counted(policy, ctx, g, &dense, pull_cfg, &candidate, &condition)
            };
            ctx.recycle_dense_frontier(dense);
            let (out, scanned) = out?;
            engine.edges += scanned;
            if let Some(mask) = &engine.unvisited {
                mask.and_not(&out);
            }
            Ok(VertexFrontier::Dense(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(current: Direction) -> PolicyInputs {
        PolicyInputs {
            n: 1000,
            frontier_len: 10,
            frontier_edges: 50,
            unexplored_edges: 10_000,
            growing: true,
            current,
        }
    }

    #[test]
    fn alpha_rule_enters_pull_only_while_growing() {
        let p = DirectionPolicy::default();
        let mut s = inputs(Direction::Push);
        s.frontier_edges = 2000; // > 10_000 / 14
        assert_eq!(p.decide(&s), Direction::Pull);
        s.growing = false;
        assert_eq!(p.decide(&s), Direction::Push);
        s.growing = true;
        s.frontier_edges = 100; // below the α threshold
        assert_eq!(p.decide(&s), Direction::Push);
    }

    #[test]
    fn beta_rule_exits_pull_on_the_shrinking_tail() {
        let p = DirectionPolicy::default();
        let mut s = inputs(Direction::Pull);
        s.frontier_len = 500; // >= 1000 / 24: keep pulling
        assert_eq!(p.decide(&s), Direction::Pull);
        s.frontier_len = 10; // < 1000 / 24: back to push
        assert_eq!(p.decide(&s), Direction::Push);
    }

    #[test]
    fn gamma_rule_picks_dense_push_for_fat_frontiers() {
        let p = DirectionPolicy::default();
        let mut s = inputs(Direction::Push);
        s.growing = false; // α can't fire
        s.frontier_len = 400; // 400 * 4 >= 1000
        assert_eq!(p.decide(&s), Direction::DensePush);
        s.frontier_len = 100; // 100 * 4 < 1000
        assert_eq!(p.decide(&s), Direction::Push);
    }

    #[test]
    fn a_fixed_plan_overrides_every_rule() {
        let mut eager = inputs(Direction::Push);
        eager.frontier_edges = 2000; // α enters pull
        let mut tail = inputs(Direction::Pull);
        tail.frontier_len = 1; // β leaves pull
        for d in [
            Direction::Push,
            Direction::DensePush,
            Direction::Pull,
            Direction::BlockedPull,
        ] {
            let p = DirectionPolicy::fixed(d);
            assert_eq!(p.decide(&eager), d);
            assert_eq!(p.decide(&tail), d);
        }
    }

    #[test]
    fn full_frontier_pushes_without_an_in_stream() {
        use essentials_graph::{Coo, Graph};
        let coo = Coo::<()>::from_edges(2, [(0, 1, ())]);
        let (csr_only, both) = (Graph::from_coo(&coo), Graph::from_coo(&coo).with_csc());
        for (p, with_in) in [
            (DirectionPolicy::default(), Direction::Pull),
            (DirectionPolicy::fixed(Direction::Pull), Direction::Pull),
            (
                DirectionPolicy::fixed(Direction::BlockedPull),
                Direction::BlockedPull,
            ),
            (
                DirectionPolicy::fixed(Direction::DensePush),
                Direction::Push,
            ),
        ] {
            assert_eq!(p.full_frontier(&both), with_in);
            assert_eq!(p.full_frontier(&csr_only), Direction::Push);
        }
    }

    #[test]
    fn only_a_settling_traversal_retires_edges_from_the_pull_price() {
        use essentials_graph::{Coo, Graph};
        use essentials_parallel::execution;
        // A path: each frontier retires one out-edge.
        let g = Graph::from_coo(&Coo::<()>::from_edges(
            4,
            [(0, 1, ()), (1, 2, ()), (2, 3, ())],
        ))
        .with_csc();
        let ctx = Context::sequential();
        for settle in [false, true] {
            let cfg = AdaptiveConfig {
                settle,
                ..AdaptiveConfig::default()
            };
            let mut engine = AdaptiveAdvance::new(&g, cfg);
            let f = VertexFrontier::Sparse(SparseFrontier::single(0));
            let next = try_advance_adaptive(
                execution::seq,
                &ctx,
                &g,
                &mut engine,
                f,
                |_| true,
                |_, d, _| d == 1,
            )
            .unwrap();
            assert_eq!(next.len(), 1);
            // A non-settle pull scans every in-edge whatever ran before.
            let price = if settle { 2 } else { 3 };
            assert_eq!(engine.unexplored_edges, price, "settle = {settle}");
        }
    }
}
