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

use essentials_frontier::{convert, DenseFrontier, Frontier, SparseFrontier, VertexFrontier};
use essentials_graph::{EdgeValue, GraphBase, InWeights, OutWeights, VertexId};
use essentials_obs::DirectionEvent;
use essentials_parallel::{ExecError, ExecutionPolicy};

use crate::context::Context;
use crate::enactor::LoopStats;
use crate::operators::advance::{
    try_expand_pull_counted, try_expand_pull_masked, try_expand_push_dense, try_neighbors_expand,
    try_neighbors_expand_unique, PullConfig,
};
use crate::operators::blocked::{try_expand_blocked_pull, BlockedConfig};

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
    /// chosen when the frontier is dense enough that binning's streaming
    /// passes beat the CSC scan's random candidate probes.
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
    /// Edges not yet retired by any earlier frontier (the α denominator).
    pub unexplored_edges: usize,
    /// Whether the frontier grew since the previous iteration.
    pub growing: bool,
    /// Direction of the previous iteration.
    pub current: Direction,
    /// Iterations since the last push↔pull flip (hysteresis dwell input).
    pub since_switch: usize,
    /// Whether the adjacency this advance traverses is byte-coded
    /// compressed ([`essentials_graph::ccsr`]). Pull over compressed lists
    /// has a different cost model — every scanned in-edge is a decode, not
    /// a load — so the policy may carry a separate α/β pair for it
    /// ([`DirectionPolicy::compressed`]).
    pub compressed: bool,
}

/// The Beamer α/β direction heuristic, hoisted out of BFS into a reusable
/// policy any frontier-driven algorithm consults per iteration.
///
/// * **α rule** (while pushing): switch to pull when the frontier is still
///   growing and its out-edge mass exceeds `unexplored_edges / alpha` — the
///   scatter is about to touch a large fraction of what remains, so
///   gathering over candidates is cheaper.
/// * **β rule** (while pulling): fall back to push when the frontier drops
///   below `n / beta` — the candidate scan no longer pays for itself on the
///   shrinking tail.
/// * **γ rule** (representation, inside the push family): emit a dense
///   bitmap output when the frontier holds at least `n / gamma` vertices, so
///   large push iterations get idempotent insertion instead of a dedup pass.
///
/// The asymmetry of α and β is itself hysteresis (the pull-entry and
/// pull-exit thresholds differ); `dwell` adds an explicit floor — a
/// push↔pull flip is suppressed until the current direction has run `dwell`
/// iterations — for workloads where the two rules straddle a boundary and
/// would otherwise oscillate.
///
/// A policy with `fixed` set skips every rule and runs that direction each
/// iteration ([`DirectionPolicy::fixed`]).
#[derive(Debug, Clone, Copy)]
pub struct DirectionPolicy {
    /// Push→pull when `growing && frontier_edges > unexplored_edges / alpha`.
    pub alpha: usize,
    /// Pull→push when `frontier_len < n / beta`.
    pub beta: usize,
    /// Dense-push (bitmap output) when `frontier_len >= n / gamma`.
    pub gamma: usize,
    /// Minimum iterations between push↔pull flips (1 = flip freely).
    pub dwell: usize,
    /// Cost model for upgrading pull iterations to the propagation-blocked
    /// kernel. `None` (the default) never blocks, preserving the historic
    /// three-direction behavior.
    pub blocked: Option<BlockedPullPolicy>,
    /// Separate α/β pair consulted when the advance runs over compressed
    /// adjacency ([`PolicyInputs::compressed`]). `None` (the default) reuses
    /// the raw thresholds, so existing policies behave identically.
    pub compressed: Option<CompressedPullPolicy>,
    /// The direction every iteration takes, bypassing the rules above.
    /// `None` (the default) decides per iteration.
    pub fixed: Option<Direction>,
}

/// The blocked-pull upgrade thresholds — a second α/β pair *inside* the
/// pull family, with its own hysteresis.
///
/// Binning pays two streaming passes over the frontier's out-edges to
/// replace the CSC scan's random destination probes; that trade wins only
/// when the active set covers a sizeable fraction of the universe. Enter
/// blocked pull when `frontier_len >= n / alpha`; once blocked, stay until
/// `frontier_len < n / beta`. `beta > alpha` makes the exit threshold
/// lower than the entry threshold, so a frontier hovering at the boundary
/// does not thrash between layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockedPullPolicy {
    /// Pull→blocked-pull when `frontier_len >= n / alpha`.
    pub alpha: usize,
    /// Blocked-pull→pull when `frontier_len < n / beta`.
    pub beta: usize,
}

impl Default for BlockedPullPolicy {
    fn default() -> Self {
        BlockedPullPolicy { alpha: 8, beta: 16 }
    }
}

/// α/β thresholds for compressed adjacency — the same Beamer rules as the
/// raw pair, retuned for the decode cost model.
///
/// A compressed pull pays a class-code decode per scanned in-edge where the raw
/// pull pays a column load, and it cannot early-exit mid-word of the decode
/// stream for free: the break saves the *rest* of the row but the prefix
/// was already decoded. Pull is therefore relatively more expensive, so the
/// compressed defaults make pull **harder to enter** (smaller α: the
/// frontier's edge mass must be a larger fraction of the unexplored pool)
/// and **earlier to exit** (smaller β: the frontier must stay fatter to
/// keep the decode-heavy scan worthwhile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressedPullPolicy {
    /// Push→pull when `growing && frontier_edges > unexplored_edges / alpha`
    /// (compressed adjacency). Smaller than the raw α.
    pub alpha: usize,
    /// Pull→push when `frontier_len < n / beta` (compressed adjacency).
    /// Smaller than the raw β.
    pub beta: usize,
}

impl Default for CompressedPullPolicy {
    fn default() -> Self {
        CompressedPullPolicy {
            alpha: 10,
            beta: 16,
        }
    }
}

impl Default for DirectionPolicy {
    fn default() -> Self {
        DirectionPolicy {
            alpha: 14,
            beta: 24,
            gamma: 4,
            dwell: 1,
            blocked: None,
            compressed: None,
            fixed: None,
        }
    }
}

impl DirectionPolicy {
    /// The plan that runs every iteration in direction `d`: fixed push
    /// (CSR only — the pull side is never touched), fixed dense push, or
    /// fixed pull. A fixed [`Direction::BlockedPull`] degrades to plain pull
    /// outside settle mode, exactly as the adaptive upgrade does.
    pub fn fixed(d: Direction) -> Self {
        DirectionPolicy {
            fixed: Some(d),
            ..DirectionPolicy::default()
        }
    }

    /// Picks the direction (and push representation) for one iteration.
    pub fn decide(&self, s: &PolicyInputs) -> Direction {
        if let Some(d) = self.fixed {
            return d;
        }
        // Compressed adjacency swaps in its own α/β pair when one is
        // configured; everything else (γ, dwell, blocked upgrade) is a
        // representation question that does not depend on the encoding.
        let (alpha, beta) = match (s.compressed, self.compressed) {
            (true, Some(cp)) => (cp.alpha, cp.beta),
            _ => (self.alpha, self.beta),
        };
        let pulling = s.current.is_pull();
        let want_pull = if pulling {
            // β rule: keep pulling while the frontier covers enough of the
            // universe for the candidate scan to amortize.
            s.frontier_len >= s.n / beta.max(1)
        } else {
            // α rule: only a still-growing frontier justifies the flip —
            // the shrinking tail on high-diameter graphs stays push.
            s.growing && s.frontier_edges > s.unexplored_edges / alpha.max(1)
        };
        let pull = if s.since_switch >= self.dwell.max(1) {
            want_pull
        } else {
            pulling
        };
        if pull {
            if let Some(bp) = self.blocked {
                let blocked_now = s.current == Direction::BlockedPull;
                let threshold = if blocked_now { bp.beta } else { bp.alpha };
                if s.frontier_len >= s.n / threshold.max(1) {
                    return Direction::BlockedPull;
                }
            }
            Direction::Pull
        } else if s.n > 0 && s.frontier_len.saturating_mul(self.gamma.max(1)) >= s.n {
            Direction::DensePush
        } else {
            Direction::Push
        }
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

/// Cross-iteration state of one adaptive traversal: the policy inputs that
/// persist between iterations (unexplored-edge mass, previous length,
/// current direction), the optional unvisited mask, and the decision trace.
pub struct AdaptiveAdvance {
    cfg: AdaptiveConfig,
    n: usize,
    unexplored_edges: usize,
    prev_len: usize,
    iter: usize,
    current: Direction,
    since_switch: usize,
    /// Unvisited-candidates mask (settle mode only), built lazily from the
    /// candidate predicate at the first pull iteration.
    unvisited: Option<DenseFrontier>,
    directions: Vec<Direction>,
    edges: usize,
}

impl AdaptiveAdvance {
    /// Fresh engine state for a traversal of `g`.
    pub fn new<G: GraphBase>(g: &G, cfg: AdaptiveConfig) -> Self {
        AdaptiveAdvance {
            cfg,
            n: g.num_vertices(),
            unexplored_edges: g.num_edges(),
            prev_len: 0,
            iter: 0,
            current: Direction::Push,
            // Large sentinel: the first decision is never dwell-suppressed.
            since_switch: usize::MAX,
            unvisited: None,
            directions: Vec::new(),
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

    /// The unvisited mask, built from `candidate` on first use (settle mode).
    fn ensure_unvisited<C: Fn(VertexId) -> bool>(
        &mut self,
        ctx: &Context,
        candidate: &C,
    ) -> &DenseFrontier {
        if self.unvisited.is_none() {
            // Parked in `self.unvisited` for the traversal's lifetime;
            // `finish()` recycles it when the loop exits.
            let mask = ctx.take_dense_frontier(self.n); // lease-ok: parked in self.unvisited until finish()
            for v in 0..self.n as VertexId {
                if candidate(v) {
                    mask.insert(v);
                }
            }
            self.unvisited = Some(mask);
        }
        self.unvisited.as_ref().unwrap() // unwrap-ok: set to Some directly above
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
    // iteration retires from the unexplored pool. O(len) either way — the
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
        since_switch: engine.since_switch,
        compressed: G::DECODES,
    });
    // The blocked kernel flushes against a candidate *bitmap*; without
    // settle mode there is none (candidacy is a predicate), so the upgrade
    // quietly degrades to the plain CSC pull.
    if dir == Direction::BlockedPull && !engine.cfg.settle {
        dir = Direction::Pull;
    }
    if dir.is_pull() != engine.current.is_pull() {
        engine.since_switch = 1;
    } else {
        engine.since_switch = engine.since_switch.saturating_add(1);
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
    engine.unexplored_edges = engine.unexplored_edges.saturating_sub(frontier_edges);
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
                    let d = ctx.take_dense_frontier(n);
                    for v in s.iter() {
                        d.insert(v);
                    }
                    ctx.recycle_frontier(s);
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
                let mask = engine.ensure_unvisited(ctx, &candidate);
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
            since_switch: usize::MAX,
            compressed: false,
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
    fn dwell_suppresses_immediate_flips() {
        let p = DirectionPolicy {
            dwell: 3,
            ..DirectionPolicy::default()
        };
        // β wants push (len < n/24), but the flip is younger than dwell.
        let mut s = inputs(Direction::Pull);
        s.frontier_len = 10;
        s.since_switch = 1;
        assert_eq!(p.decide(&s), Direction::Pull);
        s.since_switch = 3;
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
    fn degenerate_parameters_do_not_divide_by_zero() {
        let p = DirectionPolicy {
            alpha: 0,
            beta: 0,
            gamma: 0,
            dwell: 0,
            blocked: Some(BlockedPullPolicy { alpha: 0, beta: 0 }),
            compressed: Some(CompressedPullPolicy { alpha: 0, beta: 0 }),
            fixed: None,
        };
        let mut s = inputs(Direction::Push);
        s.compressed = true;
        let _ = p.decide(&s);
        let s = inputs(Direction::Push);
        let _ = p.decide(&s); // must not panic
        let s = inputs(Direction::Pull);
        let _ = p.decide(&s);
    }

    #[test]
    fn compressed_pair_substitutes_only_when_the_adjacency_decodes() {
        let p = DirectionPolicy {
            // Raw α = 14 would flip at frontier_edges > 10_000/14 ≈ 714; the
            // compressed α = 4 demands > 2500.
            compressed: Some(CompressedPullPolicy { alpha: 4, beta: 8 }),
            ..DirectionPolicy::default()
        };
        let mut s = inputs(Direction::Push);
        s.frontier_edges = 1000;
        assert_eq!(p.decide(&s), Direction::Pull, "raw α fires");
        s.compressed = true;
        assert_eq!(p.decide(&s), Direction::Push, "compressed α is stricter");
        s.frontier_edges = 3000;
        assert_eq!(p.decide(&s), Direction::Pull);
        // β side: raw keeps pulling down to n/24; compressed exits at n/8.
        let mut s = inputs(Direction::Pull);
        s.frontier_len = 100;
        assert_eq!(p.decide(&s), Direction::Pull, "raw β keeps pulling");
        s.compressed = true;
        assert_eq!(p.decide(&s), Direction::Push, "compressed β exits earlier");
        // Without a compressed pair, compressed inputs use the raw pair.
        let plain = DirectionPolicy::default();
        assert_eq!(plain.decide(&s), Direction::Pull);
    }

    #[test]
    fn blocked_upgrade_fires_only_above_its_alpha_threshold() {
        let p = DirectionPolicy {
            blocked: Some(BlockedPullPolicy { alpha: 8, beta: 16 }),
            ..DirectionPolicy::default()
        };
        let mut s = inputs(Direction::Pull);
        s.frontier_len = 200; // >= 1000/8: dense enough to bin
        assert_eq!(p.decide(&s), Direction::BlockedPull);
        s.frontier_len = 100; // pull keeps running (>= n/24) but below n/8
        assert_eq!(p.decide(&s), Direction::Pull);
        // Without the upgrade policy the same inputs never block.
        let plain = DirectionPolicy::default();
        s.frontier_len = 200;
        assert_eq!(plain.decide(&s), Direction::Pull);
    }

    #[test]
    fn blocked_exit_has_hysteresis() {
        let p = DirectionPolicy {
            blocked: Some(BlockedPullPolicy { alpha: 8, beta: 16 }),
            ..DirectionPolicy::default()
        };
        // Between n/16 and n/8: stays blocked if already blocked, stays
        // plain if not — the two thresholds straddle the boundary.
        let mut s = inputs(Direction::BlockedPull);
        s.frontier_len = 80;
        assert_eq!(p.decide(&s), Direction::BlockedPull);
        let mut s = inputs(Direction::Pull);
        s.frontier_len = 80;
        assert_eq!(p.decide(&s), Direction::Pull);
        // Below n/16 the β rule of the outer pair still rules first: 80 >=
        // 1000/24 keeps pulling, 30 < 1000/24 leaves the pull family.
        let mut s = inputs(Direction::BlockedPull);
        s.frontier_len = 30;
        assert_eq!(p.decide(&s), Direction::Push);
    }
}
