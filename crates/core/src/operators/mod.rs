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

use std::ops::Range;

use essentials_parallel::{try_sequential_for_with, ExecError, ExecutionPolicy, Schedule};

use crate::context::Context;

/// `f(worker, i)` for every `i` in `range` under the context's chunk hooks:
/// across the pool for a parallel policy, in order on the calling thread
/// otherwise — the same chunk numbering either way.
pub(crate) fn try_for_with<P, F>(
    ctx: &Context,
    range: Range<usize>,
    schedule: Schedule,
    f: F,
) -> Result<(), ExecError>
where
    P: ExecutionPolicy,
    F: Fn(usize, usize) + Sync,
{
    if P::IS_PARALLEL {
        ctx.pool()
            .try_parallel_for_with(range, schedule, ctx.chunk_hooks(), f)
    } else {
        try_sequential_for_with(range, schedule, ctx.chunk_hooks(), f)
    }
}
