//! The Pregel-style BSP engine over partitioned graphs.
//!
//! Ranks are logical partitions, not threads. A superstep is one iteration
//! of the context's [`Enactor`] fixpoint loop and one pass over the
//! context's pool with one chunk per rank, in which the rank
//!
//! 1. **delivers** — gathers the segments of last superstep's outboxes
//!    addressed to it into its inbox, sorted by destination, so `compute`
//!    reads a vertex's messages as one slice;
//! 2. **computes** — runs the program of every active vertex; sends land in
//!    the rank's outbox, which is then sorted by (owner rank, destination)
//!    and, with a combiner, folded to one message per destination.
//!
//! Between passes the outboxes are published for the next delivery. The run
//! halts at the first superstep that sends nothing (global quiescence — the
//! message-passing analogue of the empty-frontier convergence condition).
//! The outboxes and inboxes belong to the engine and keep their capacity
//! from superstep to superstep. Budgets, fault plans, iteration spans and
//! panic capture are the enactor's and the pool's, and the worker count is
//! the context's whatever the rank count.

use std::cell::RefCell;
use std::ops::Range;

use essentials_core::{Context, Enactor, SwapSlot};
use essentials_graph::{EdgeValue, GraphBase, VertexId};
use essentials_parallel::ExecError;
use essentials_partition::PartitionedGraph;

/// A sender-side message combiner: an associative, commutative merge of two
/// messages addressed to the same vertex (see [`VertexProgram::combiner`]).
pub type CombinerFn<M> = fn(M, M) -> M;

/// A message in flight: `(destination, payload)`.
type Envelope<M> = (VertexId, M);

/// Read-only view of a vertex's out-edges handed to `compute`.
pub struct NeighborView<'a, W> {
    /// Destinations (global ids).
    pub dsts: &'a [VertexId],
    /// Weights aligned with `dsts`.
    pub weights: &'a [W],
}

/// Send-side context handed to `compute`.
pub struct ComputeCtx<'a, M> {
    superstep: usize,
    rank: usize,
    /// The rank's outbox. A rank is one chunk on one worker, so a `RefCell`
    /// suffices.
    outbox: RefCell<&'a mut Vec<Envelope<M>>>,
}

impl<M> ComputeCtx<'_, M> {
    /// Current superstep (0-based).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// This vertex's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Sends `msg` to vertex `dst` (delivered next superstep, on `dst`'s
    /// owner rank). With a combiner, the messages this rank sends to one
    /// destination in one superstep are merged before delivery.
    pub fn send(&self, dst: VertexId, msg: M) {
        self.outbox.borrow_mut().push((dst, msg)); // alloc-ok: the outbox keeps its capacity across supersteps
    }
}

/// A vertex program in the Pregel mold: per-vertex value, typed messages,
/// compute invoked on vertices that received messages (plus the seed set at
/// superstep 0).
pub trait VertexProgram<W: EdgeValue>: Sync {
    /// Per-vertex state.
    type Value: Clone + Send;
    /// Message payload. Every rank reads the published outboxes and copies
    /// the messages addressed to it into its inbox, hence `Clone + Sync`.
    type Msg: Clone + Send + Sync;

    /// Initial value of every vertex.
    fn init(&self, v: VertexId) -> Self::Value;

    /// Optional sender-side combiner: an associative, commutative merge of
    /// two messages addressed to the same vertex (min for BFS/SSSP, sum
    /// for PageRank). Returning `Some` cuts message volume — each rank
    /// transmits at most one message per destination per superstep.
    fn combiner(&self) -> Option<CombinerFn<Self::Msg>> {
        None
    }

    /// Invoked when `v` is active. `msgs` holds everything addressed to `v`
    /// last superstep, grouped by sender rank in an order fixed by the
    /// program and the partitioning alone (empty only in superstep 0 for
    /// seeds). Implementations mutate their value and send messages; a
    /// vertex halts implicitly by sending nothing and is re-awoken by
    /// incoming messages.
    fn compute(
        &self,
        ctx: &ComputeCtx<'_, Self::Msg>,
        v: VertexId,
        value: &mut Self::Value,
        out: NeighborView<'_, W>,
        msgs: &[Self::Msg],
    );
}

/// Statistics of one Pregel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpStats {
    /// Supersteps executed (including the final quiescent one).
    pub supersteps: usize,
    /// Messages sent in total.
    pub messages_total: usize,
    /// Messages that crossed ranks — the communication volume that
    /// partition quality controls.
    pub messages_remote: usize,
}

/// One rank's engine-owned state. Every buffer is cleared, never freed,
/// between supersteps.
struct Rank<V, M> {
    /// Values of the owned vertices, in local (ascending global id) order.
    values: Vec<V>,
    /// This superstep's deliveries as `(destination, sender rank, index in
    /// the sender's outbox)`, sorted.
    inbox: Vec<(VertexId, u32, usize)>,
    /// Payloads aligned with `inbox`.
    msgs: Vec<M>,
    /// Messages sent this superstep; sorted by (owner rank, destination)
    /// once the compute pass ends. Alternates with the rank's slot of the
    /// engine's published outboxes.
    outbox: Vec<Envelope<M>>,
}

/// Runs `f` on the rank state parked in `slot`. Each pass hands rank `r` to
/// exactly one chunk, so the slot is never found empty; a panic inside `f`
/// drops the state, and the run it belongs to fails with it.
fn with_rank<V, M>(slot: &SwapSlot<Rank<V, M>>, f: impl FnOnce(&mut Rank<V, M>)) {
    let mut rank = slot.take().expect("rank state is parked between passes");
    f(&mut rank);
    let displaced = slot.put(rank);
    debug_assert!(displaced.is_none());
}

/// The segment of a sorted outbox addressed to rank `to`.
fn addressed_to<W: EdgeValue, M>(
    pg: &PartitionedGraph<W>,
    outbox: &[Envelope<M>],
    to: usize,
) -> Range<usize> {
    let owner = |&(d, _): &Envelope<M>| pg.owner_of(d) as usize;
    outbox.partition_point(|e| owner(e) < to)..outbox.partition_point(|e| owner(e) <= to)
}

/// Publishes every rank's outbox into `transit` for the next delivery and
/// hands the rank the buffer delivered from, cleared and grown to the new
/// volume: under a steady message volume each rank's two buffers stop
/// growing after the first message-bearing superstep.
fn publish_outboxes<V, M>(ranks: &[SwapSlot<Rank<V, M>>], transit: &mut [Vec<Envelope<M>>]) {
    for (slot, published) in ranks.iter().zip(transit) {
        with_rank(slot, |rank| {
            std::mem::swap(&mut rank.outbox, published);
            rank.outbox.clear();
            rank.outbox.reserve(published.len());
        });
    }
}

/// Runs `program` over `pg` with `seeds` active at superstep 0. Returns the
/// final value of every vertex (global order) and run statistics.
///
/// # Panics
///
/// Panics with the error's message where [`try_run_pregel`] returns one.
pub fn run_pregel<W, P>(
    ctx: &Context,
    pg: &PartitionedGraph<W>,
    program: &P,
    seeds: &[VertexId],
) -> (Vec<P::Value>, MpStats)
where
    W: EdgeValue,
    P: VertexProgram<W>,
{
    match try_run_pregel(ctx, pg, program, seeds) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible form of [`run_pregel`]: supersteps run as one
/// [`Enactor::try_run_until`] loop on `ctx`, so its budget is checked at
/// superstep and rank boundaries (a stop returns [`ExecError::Budget`] with
/// the supersteps completed), a panicking vertex program returns
/// [`ExecError::WorkerPanic`], and a run that never quiesces stops at the
/// enactor's default cap with [`ExecError::Diverged`]. Fault plans address
/// `(superstep, rank)`. The context stays reusable after an error.
pub fn try_run_pregel<W, P>(
    ctx: &Context,
    pg: &PartitionedGraph<W>,
    program: &P,
    seeds: &[VertexId],
) -> Result<(Vec<P::Value>, MpStats), ExecError>
where
    W: EdgeValue,
    P: VertexProgram<W>,
{
    let k = pg.num_parts();
    let combiner = program.combiner();
    let ranks: Vec<SwapSlot<Rank<P::Value, P::Msg>>> = (0..k)
        .map(|r| {
            let slot = SwapSlot::new();
            let rank = Rank {
                values: pg.part(r).owned.iter().map(|&v| program.init(v)).collect(),
                inbox: Vec::new(),
                msgs: Vec::new(),
                outbox: Vec::new(),
            };
            let displaced = slot.put(Box::new(rank));
            debug_assert!(displaced.is_none());
            slot
        })
        .collect();
    let mut transit: Vec<Vec<Envelope<P::Msg>>> = (0..k).map(|_| Vec::new()).collect();
    let mut messages_total = 0;
    let mut messages_remote = 0;

    // A superstep's work for the dispatch rule: every owned vertex.
    let work = pg.num_vertices();
    let (_, loop_stats) = Enactor::for_ctx(ctx).try_run_until((), |step, _, progress| {
        ctx.pool()
            .try_for_each_chunk(k, work, ctx.chunk_hooks(), |_, r| {
                with_rank(&ranks[r], |rank| {
                    deliver_pass(pg, &transit, r, rank);
                    compute_pass(pg, program, combiner, seeds, step, r, rank);
                })
            })?;
        publish_outboxes(&ranks, &mut transit);
        let mut sent = 0;
        for (r, outbox) in transit.iter().enumerate() {
            sent += outbox.len();
            messages_remote += outbox.len() - addressed_to(pg, outbox, r).len();
        }
        messages_total += sent;
        progress.report_work(sent);
        Ok(sent == 0)
    })?;

    // `owned` lists ascend, so visiting vertices in global order drains each
    // rank's values in local order.
    let mut per_rank: Vec<_> = ranks
        .iter()
        .map(|slot| {
            let rank = slot.take().expect("rank state is parked after the run");
            rank.values.into_iter()
        })
        .collect();
    let values = (0..pg.num_vertices() as VertexId)
        .map(|v| {
            per_rank[pg.owner_of(v) as usize]
                .next()
                .expect("every vertex is owned by one rank")
        })
        .collect();
    Ok((
        values,
        MpStats {
            supersteps: loop_stats.iterations,
            messages_total,
            messages_remote,
        },
    ))
}

/// The compute half of rank `r`'s pass: runs the program on the seeds
/// (superstep 0) and on every vertex with mail, then sorts the outbox by
/// (owner rank, destination) and folds it through the combiner, if any.
fn compute_pass<W, P>(
    pg: &PartitionedGraph<W>,
    program: &P,
    combiner: Option<CombinerFn<P::Msg>>,
    seeds: &[VertexId],
    step: usize,
    r: usize,
    rank: &mut Rank<P::Value, P::Msg>,
) where
    W: EdgeValue,
    P: VertexProgram<W>,
{
    let Rank {
        values,
        inbox,
        msgs,
        outbox,
    } = rank;
    let part = pg.part(r);
    let ctx = ComputeCtx {
        superstep: step,
        rank: r,
        outbox: RefCell::new(&mut *outbox),
    };
    let mut run = |v: VertexId, msgs: &[P::Msg]| {
        let li = pg.local_index(v);
        let (lo, hi) = (part.offsets[li], part.offsets[li + 1]);
        let out = NeighborView {
            dsts: &part.cols[lo..hi],
            weights: &part.vals[lo..hi],
        };
        program.compute(&ctx, v, &mut values[li], out, msgs);
    };
    if step == 0 {
        for &s in seeds.iter().filter(|&&s| pg.owner_of(s) as usize == r) {
            run(s, &[]);
        }
    }
    let mut lo = 0;
    for group in inbox.chunk_by(|a, b| a.0 == b.0) {
        run(group[0].0, &msgs[lo..lo + group.len()]);
        lo += group.len();
    }

    outbox.sort_unstable_by_key(|&(d, _)| (pg.owner_of(d), d));
    if let Some(combine) = combiner {
        outbox.dedup_by(|later, kept| {
            if later.0 != kept.0 {
                return false;
            }
            kept.1 = combine(kept.1.clone(), later.1.clone()); // alloc-ok: messages are plain values
            true
        });
    }
}

/// The deliver half of rank `r`'s pass: gathers every published outbox
/// segment addressed to `r` and sorts it by destination (then sender rank,
/// then outbox index), copying the payloads alongside.
fn deliver_pass<W, V, M>(
    pg: &PartitionedGraph<W>,
    transit: &[Vec<Envelope<M>>],
    r: usize,
    rank: &mut Rank<V, M>,
) where
    W: EdgeValue,
    M: Clone,
{
    rank.inbox.clear();
    rank.msgs.clear();
    for (s, outbox) in transit.iter().enumerate() {
        let segment = addressed_to(pg, outbox, r);
        rank.inbox
            .extend(segment.map(|i| (outbox[i].0, s as u32, i)));
    }
    rank.inbox.sort_unstable();
    rank.msgs.extend(
        rank.inbox
            .iter()
            .map(|&(_, s, i)| transit[s as usize][i].1.clone()), // alloc-ok: messages are plain values
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_graph::Graph;
    use essentials_partition::{random_partition, PartitionedGraph};

    /// A ping program: superstep 0 seeds send their id; receivers record
    /// the max id seen and stop.
    struct MaxId;
    impl VertexProgram<()> for MaxId {
        type Value = u32;
        type Msg = u32;
        fn init(&self, _v: VertexId) -> u32 {
            0
        }
        fn compute(
            &self,
            ctx: &ComputeCtx<'_, u32>,
            v: VertexId,
            value: &mut u32,
            out: NeighborView<'_, ()>,
            msgs: &[u32],
        ) {
            if ctx.superstep() == 0 {
                for &d in out.dsts {
                    ctx.send(d, v);
                }
            } else {
                *value = (*value).max(msgs.iter().copied().max().unwrap_or(0));
            }
        }
    }

    #[test]
    fn one_superstep_ping() {
        // Edges 3->1, 3->2: receivers record 3.
        let g = Graph::<()>::from_coo(&essentials_graph::Coo::from_edges(
            4,
            [(3, 1, ()), (3, 2, ())],
        ));
        let p = random_partition(4, 2, 1);
        let pg = PartitionedGraph::build(&g, &p);
        let seeds: Vec<VertexId> = (0..4).collect();
        let (values, stats) = run_pregel(&Context::new(2), &pg, &MaxId, &seeds);
        assert_eq!(values[1], 3);
        assert_eq!(values[2], 3);
        assert_eq!(values[0], 0);
        assert_eq!(stats.messages_total, 2);
        assert!(stats.supersteps >= 2);
    }

    #[test]
    fn no_seeds_terminates_immediately() {
        let g = Graph::<()>::from_coo(&essentials_graph::Coo::from_edges(2, [(0, 1, ())]));
        let p = random_partition(2, 2, 3);
        let pg = PartitionedGraph::build(&g, &p);
        let (_, stats) = run_pregel(&Context::new(2), &pg, &MaxId, &[]);
        assert_eq!(stats.messages_total, 0);
        assert_eq!(stats.supersteps, 1);
    }

    #[test]
    fn single_rank_works() {
        let g = Graph::<()>::from_coo(&essentials_graph::Coo::from_edges(
            3,
            [(0, 1, ()), (1, 2, ())],
        ));
        let p = essentials_partition::Partitioning::new(vec![0, 0, 0], 1);
        let pg = PartitionedGraph::build(&g, &p);
        let (values, stats) = run_pregel(&Context::new(2), &pg, &MaxId, &[0]);
        assert_eq!(values[1], 0);
        assert_eq!(stats.messages_remote, 0);
    }
}
