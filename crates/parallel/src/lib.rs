//! `essentials-parallel` — the CPU execution substrate for essentials-rs.
//!
//! The paper's abstraction ("Essentials of Parallel Graph Analytics",
//! §III-A) requires operators whose *semantics stay fixed while the
//! execution changes*, selected by execution-policy types. GPUs being out of
//! scope for this reproduction (see DESIGN.md), this crate provides the
//! CPU-parallel machinery those policies dispatch to:
//!
//! * [`pool::ThreadPool`] — persistent workers executing OpenMP-style
//!   *parallel regions*; the bulk-synchronous substrate. Its chunk loop,
//!   [`pool::try_for_each_chunk_mut`], hands each chunk an exclusive
//!   window of a caller's buffer (fills, per-chunk partials, scans).
//! * [`schedule::Schedule`] — static / dynamic loop scheduling,
//!   the load-balancing knob of §IV-C.
//! * [`scan`] — parallel exclusive prefix sum; the compressed-graph
//!   builder's byte offsets.
//! * [`async_engine`] — a work-queue engine with quiescence-based
//!   termination detection; the asynchronous substrate (the CPU equivalent
//!   of the Atos-style GPU queue the paper cites).
//! * [`atomics`] — atomic float min/add and an atomic bitset, the
//!   shared-memory communication primitives used by frontiers and
//!   vertex programs (Listing 4's `atomic::min`).
//! * [`policy`] — the `ExecutionPolicy` marker types (`seq`, `par`,
//!   `par_nosync`) mirroring the paper's C++ `execution::` namespace.
//! * [`exec`] — typed execution errors, cooperative run budgets
//!   (cancellation, deadlines, iteration caps), and deterministic fault
//!   injection; the vocabulary of the resilient execution layer.

#![warn(missing_docs)]

pub mod async_engine;
pub mod atomics;
pub mod exec;
pub mod policy;
pub mod pool;
pub mod scan;
pub mod schedule;

pub use async_engine::{run_async, run_async_seq, try_run_async, AsyncStats, Pusher};
pub use exec::{
    panic_payload_string, BudgetReason, CancelToken, ChunkAction, ChunkHooks, ExecError, FaultPlan,
    Progress, RequestFault, RequestFaultPlan, RunBudget,
};
pub use policy::{execution, ExecutionPolicy, Par, ParNosync, Seq};
pub use pool::{
    try_for_each_chunk_mut, try_sequential_for_with, ChunkSplit, RegionCounts, ThreadPool,
};
pub use scan::{parallel_scan, parallel_scan_with, serial_scan};
pub use schedule::Schedule;
