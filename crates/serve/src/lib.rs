//! # essentials-serve — the concurrent query-serving engine
//!
//! Everything below this crate computes *one* traversal well; this crate
//! serves *many at once*. A long-lived [`Engine`] holds one immutable
//! `Arc<Graph>`, one shared thread pool, a **keyed scratch pool** (one
//! [`essentials_core::ScratchSlot`] per in-flight request, leased by CAS
//! checkout), and a **two-class fair admission gate** (bounded in-flight
//! permits, FIFO within class, light probes never starved behind
//! cap-blocked heavy analytics).
//!
//! The throughput lever is [`Engine::bfs_batch`]: multi-source batched BFS
//! packs up to 64 traversals into one graph pass with a `u64` mask word
//! per vertex (`essentials_algos::multi_source`), so a serving workload of
//! many reachability probes costs ~one traversal per 64 queries instead of
//! one each.
//!
//! Serving semantics — deadlines spanning queue *and* run, cancellation,
//! determinism per request, and the zero-steady-state-allocation contract
//! — are specified in DESIGN.md §13 and enforced by
//! `tests/serve_concurrency.rs` and `tests/zero_alloc.rs`.
//!
//! Overload resilience — deadline-feasibility shedding, degraded-mode
//! (brownout) results, scratch quarantine after captured panics, and
//! request-keyed chaos injection — is specified in DESIGN.md §16 and
//! exercised by `tests/chaos.rs`.

pub mod admission;
pub mod engine;
pub mod pool;

pub use admission::{Admission, AdmissionError, Class, Permit};
pub use engine::{Brownout, Engine, EngineConfig, EngineHealth, Outcome, Response, ServeError};
pub use pool::{PoolCounts, ScratchLease, ScratchPool};
