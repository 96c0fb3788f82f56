//! `essentials-algos` — the algorithm suite built on the essentials
//! abstraction, with sequential baselines and verifiers.
//!
//! Every parallel algorithm here is composed from the four essential
//! components (graph + frontier + operators + enacted loop) and comes with:
//!
//! * a **sequential baseline** implementing the textbook algorithm
//!   directly (the correctness oracle and the speedup denominator);
//! * a **verifier** checking solution validity independently of how it was
//!   computed (fixpoint conditions, not output equality, wherever the
//!   solution is non-unique);
//! * **work counters** (edges relaxed, iterations) — the machine-
//!   independent quantities `benchmark/` reports alongside time.
//!
//! The roster follows the Gunrock essentials suite, CPU edition: traversal
//! ([`bfs`], [`multi_source`], [`sssp`], [`sswp`]), fixpoint ranking
//! ([`pagerank`], [`hits`]),
//! structure ([`cc`], [`kcore`], [`tc`], [`mst`], [`color`], [`bc`],
//! [`closeness`]), and
//! the linear-algebra kernel ([`spmv`]).

#![warn(missing_docs)]

pub mod bc;
pub mod bfs;
pub mod cc;
pub mod closeness;
pub mod color;
pub mod diameter;
pub mod hits;
pub mod kcore;
pub mod mst;
pub mod multi_source;
pub mod pagerank;
pub mod paths;
pub mod random_walk;
pub mod spgemm;
pub mod spmv;
pub mod sssp;
pub mod sswp;
pub mod tc;
