//! Parallel operators — essential component 3.
//!
//! "A high-performance graph analytics implementation relies on efficient
//! parallel operators that transform, expand, or contract the frontiers or
//! graphs" (§IV-C). Every operator here is generic over an
//! [`essentials_parallel::ExecutionPolicy`]; its observable result is
//! identical for `seq`, `par`, and `par_nosync` (tested as policy
//! equivalence), while its execution changes from a plain loop to a
//! bulk-synchronous parallel-for to barrier-free asynchronous draining.

pub mod advance;
pub mod blocked;
pub mod compute;
pub mod direction;
pub mod filter;
pub mod intersect;
pub mod reduce;
