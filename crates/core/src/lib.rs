//! `essentials-core` — the paper's primary contribution: an abstraction for
//! native-graph analytics built from four essential components.
//!
//! 1. **Graph data structure** — `essentials-graph` (multiple simultaneous
//!    representations behind one API).
//! 2. **Frontiers** — `essentials-frontier` (sparse / dense / queue, one
//!    query interface).
//! 3. **Operators** — [`operators`]: traversals and transformations over
//!    graphs and frontiers, generic over
//!    [`ExecutionPolicy`](essentials_parallel::ExecutionPolicy) so the same
//!    operator runs sequentially, bulk-synchronously, or asynchronously
//!    with identical semantics (§III-A).
//! 4. **Loop structure / convergence** — [`enactor`]: the iterative
//!    while-loop of Listing 4 with pluggable convergence conditions.
//!
//! [`load_balance`] holds the work-division machinery the paper locates in
//! operators ("this is where the bulk of optimizations can be introduced",
//! §IV-C), and [`context`] carries the thread pool through an algorithm.

#![warn(missing_docs)]

pub mod context;
pub mod enactor;
pub mod load_balance;
pub mod operators;
pub mod scratch;
pub mod slot;

pub use context::{resolve_threads, Context};
pub use enactor::{Enactor, IterProgress, LoopStats, DEFAULT_ITERATION_CAP};
pub use scratch::{AdvanceScratch, ScratchSlot};
pub use slot::SwapSlot;

/// The observability layer the operators emit into (re-exported so
/// algorithm crates need no separate dependency).
pub use essentials_obs as obs;

/// Everything a typical algorithm needs, in one import.
pub mod prelude {
    pub use crate::context::{resolve_threads, Context};
    pub use crate::enactor::{Enactor, IterProgress, LoopStats, DEFAULT_ITERATION_CAP};
    pub use crate::load_balance::{for_each_edge_balanced, for_each_vertex_balanced};
    pub use crate::operators::advance::{
        advance_edges, expand_pull_counted, expand_pull_masked, expand_to_edges, neighbors_expand,
        neighbors_expand_unique, try_expand_pull_counted, try_expand_pull_masked,
        try_expand_push_dense, try_neighbors_expand, try_neighbors_expand_unique, PullConfig,
    };
    pub use crate::operators::blocked::{
        try_expand_blocked_pull, BlockedConfig, BlockedGather, GatherDirection,
    };
    // The frozen benchmark calls these two on its mmapped view by their
    // former `_compressed` names; the one generic body serves both.
    pub use crate::operators::advance::{
        expand_pull_counted as expand_pull_counted_compressed,
        neighbors_expand as neighbors_expand_compressed,
    };
    pub use crate::operators::compute::{
        fill_indexed, fill_indexed_into, foreach_active, foreach_vertex, try_foreach_vertex,
    };
    pub use crate::operators::direction::{
        try_advance_adaptive, AdaptiveAdvance, AdaptiveConfig, BlockedPullPolicy,
        CompressedPullPolicy, Direction, DirectionPolicy,
    };
    pub use crate::operators::filter::{filter, try_filter, uniquify, uniquify_with_bitmap};
    pub use crate::operators::intersect::{intersect_count, intersect_count_gallop};
    pub use crate::operators::reduce::{count_if, max_f64, reduce, sum_f64};
    pub use crate::scratch::{AdvanceScratch, ScratchSlot};
    pub use essentials_frontier::{
        DenseFrontier, EdgeFrontier, Frontier, QueueFrontier, SparseFrontier, VertexFrontier,
    };
    pub use essentials_graph::{
        Ccsr, CcsrView, CompressedGraph, CompressedGraphView, Coo, Csr, EdgeId, EdgeValue,
        EdgeWeights, Graph, GraphBase, GraphBuilder, InAdjacency, InNeighbors, InWeights,
        NeighborDecoder, OutAdjacency, OutNeighbors, OutWeights, VertexId, INVALID_VERTEX,
    };
    pub use essentials_obs::{
        CounterTotals, CountersSink, NullSink, ObsSink, Summary, TeeSink, TraceSink,
    };
    pub use essentials_parallel::{
        execution, BudgetReason, CancelToken, ExecError, ExecutionPolicy, FaultPlan, Par,
        ParNosync, Progress, RunBudget, Schedule, Seq, ThreadPool,
    };
}
