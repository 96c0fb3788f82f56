//! `essentials-mp` — the message-passing communication model (§III-B).
//!
//! The paper's claim: *"Expressing both models under the same framework can
//! potentially allow for performance benefits in hierarchical distributed
//! systems"* — with frontiers-as-queues carrying the active set as
//! messages. This crate realizes the model fully: vertices live on
//! **ranks** (threads standing in for processes — no cluster is available
//! in this reproduction, see DESIGN.md), data moves **only** through typed
//! mailboxes, and computation proceeds in Pregel-style supersteps over a
//! partitioned graph from `essentials-partition`.
//!
//! * [`mailbox`] — per-(receiver, sender) buffered channels with superstep
//!   delivery semantics;
//! * [`pregel`] — the BSP engine: vertex programs, vote-to-halt via
//!   message quiescence, barrier-synchronized supersteps;
//! * [`algorithms`] — BFS, SSSP and PageRank as vertex programs, verified
//!   against their shared-memory counterparts;
//! * [`async_mp`] — the **asynchronous** message-passing mode (Table I's
//!   fourth timing×communication quadrant): no supersteps, messages
//!   processed on arrival, termination by global quiescence.

#![warn(missing_docs)]

pub mod algorithms;
pub mod async_mp;
pub mod mailbox;
pub mod pregel;

pub use async_mp::{async_mp_bfs, async_mp_sssp, run_async_mp, AsyncMpStats, AsyncSender};
pub use mailbox::Mailbox;
pub use pregel::{run_pregel, CombinerFn, ComputeCtx, MpStats, NeighborView, VertexProgram};
