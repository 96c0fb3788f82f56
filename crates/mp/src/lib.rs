//! `essentials-mp` — the message-passing communication model (§III-B).
//!
//! The paper's claim: *"Expressing both models under the same framework can
//! potentially allow for performance benefits in hierarchical distributed
//! systems"* — with frontiers-as-queues carrying the active set as
//! messages. This crate expresses the model on the same framework as the
//! shared-memory algorithms: vertices live on **ranks** — logical
//! partitions of a partitioned graph from `essentials-partition`, run as
//! chunks of the context's thread pool rather than OS threads of their own
//! (no cluster is available in this reproduction, see DESIGN.md) — data
//! moves between vertices **only** as typed messages, and computation
//! proceeds in Pregel-style supersteps.
//!
//! * [`pregel`] — the BSP engine: vertex programs, per-rank outboxes and
//!   inboxes, vote-to-halt via message quiescence; each superstep is one
//!   iteration of the context's `Enactor` loop;
//! * [`algorithms`] — BFS, SSSP and PageRank as vertex programs, verified
//!   against their shared-memory counterparts;
//! * [`async_mp`] — the **asynchronous** message-passing mode (Table I's
//!   fourth timing×communication quadrant): no supersteps, messages
//!   processed on arrival by the shared-memory asynchronous engine,
//!   termination by global quiescence.

#![warn(missing_docs)]

pub mod algorithms;
pub mod async_mp;
pub mod pregel;

pub use async_mp::{
    async_mp_bfs, async_mp_sssp, run_async_mp, try_run_async_mp, AsyncMpStats, AsyncSender,
};
pub use pregel::{
    run_pregel, try_run_pregel, CombinerFn, ComputeCtx, MpStats, NeighborView, VertexProgram,
};
