//! `essentials-obs` — operator-level observability for essentials-rs.
//!
//! The paper's abstraction separates *what* an operator does from *how* it
//! executes (execution policies, push vs. pull, load balancing), but tuning
//! those choices — and hunting regressions in them — needs runtime evidence:
//! per-iteration edge counts, MTEPS, load-balance skew, direction-switch
//! decisions. Gunrock and GraphBLAST both ship such counters; this crate is
//! their essentials-rs equivalent.
//!
//! The design is a single [`ObsSink`] trait with three stock sinks:
//!
//! * [`NullSink`] — every hook is an empty default method and
//!   [`ObsSink::wants_op_detail`] returns `false`, so instrumented hot paths
//!   skip all bookkeeping. A context with no sink (the default) costs
//!   nothing at all; a context with `NullSink` costs one predictable branch
//!   per operator call. Neither allocates (proved by `tests/zero_alloc.rs`).
//! * [`CountersSink`] — relaxed atomic totals: edges inspected, vertices
//!   pushed, fused-dedup hits, filter drops, and per-worker push counts from
//!   which load-balance skew is derived. These are the machine-independent
//!   work counts `benchmark/` reports.
//! * [`TraceSink`] — an append-only log of [`Record`]s: per-iteration spans
//!   (wall time, frontier in/out sizes), per-operator events, and
//!   direction-optimizing switch decisions. Exported as JSON lines
//!   ([`write_jsonl`]) and digestible into a [`Summary`] (MTEPS, skew
//!   ratio, iterations).
//!
//! Events flow from the instrumentation hooks in `essentials-core`
//! (`Context` carries an optional shared sink; `Enactor` and the operators
//! emit into it) — this crate deliberately depends on nothing above the
//! vendored `parking_lot`, so every layer of the stack can use it.

#![warn(missing_docs)]

pub mod counters;
pub mod estimator;
pub mod event;
pub mod export;
pub mod sink;
pub mod summary;
pub mod trace;

pub use counters::{CounterTotals, CountersSink};
pub use estimator::ServiceEstimator;
pub use event::{
    AbortEvent, AdvanceEvent, ComputeEvent, DirectionEvent, FilterEvent, IterSpan, LoopKind,
    OpKind, RequestEvent,
};
pub use export::write_jsonl;
pub use sink::{NullSink, ObsSink, TeeSink};
pub use summary::Summary;
pub use trace::{Record, TraceSink};
