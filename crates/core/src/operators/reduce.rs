//! Reduction operators over vertex ranges.

use essentials_parallel::{
    try_for_each_chunk_mut, ChunkHooks, ChunkSplit, ExecutionPolicy, Schedule,
};

use crate::context::Context;

/// Reduces `map(i)` for `i in 0..n` with an associative `combine` starting
/// from `identity`.
pub fn reduce<P, T, M, C>(_policy: P, ctx: &Context, n: usize, identity: T, map: M, combine: C) -> T
where
    P: ExecutionPolicy,
    T: Clone + Send + Sync,
    M: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync + Send,
{
    if !P::IS_PARALLEL || ctx.num_threads() == 1 {
        let mut acc = identity;
        for i in 0..n {
            acc = combine(acc, map(i));
        }
        return acc;
    }
    ctx.pool()
        .parallel_reduce(0..n, Schedule::default(), identity, map, combine)
}

/// Counts indices in `0..n` satisfying `pred`.
pub fn count_if<P, F>(policy: P, ctx: &Context, n: usize, pred: F) -> usize
where
    P: ExecutionPolicy,
    F: Fn(usize) -> bool + Sync,
{
    reduce(
        policy,
        ctx,
        n,
        0usize,
        |i| usize::from(pred(i)),
        |a, b| a + b,
    )
}

/// Maximum of `map(i)` over `0..n` under `f64` ordering (NaN-free inputs).
pub fn max_f64<P, M>(policy: P, ctx: &Context, n: usize, map: M) -> f64
where
    P: ExecutionPolicy,
    M: Fn(usize) -> f64 + Sync,
{
    reduce(policy, ctx, n, f64::NEG_INFINITY, map, f64::max)
}

/// Sum of `map(i)` over `0..n`, deterministically: the parallel path cuts
/// `0..n` into fixed chunks, the chunk loop ([`try_for_each_chunk_mut`])
/// writes each chunk's partial into its own slot, and the partials are
/// combined **in chunk order** after the join. The association therefore
/// depends only on `n` — never on thread count, chunk-claim order, or merge
/// arrival — so repeated runs and different pool widths produce
/// bit-identical sums. The differential suite leans on this: compressed
/// pull PageRank must reproduce raw ranks bit-for-bit, and the
/// dangling-mass and residual terms computed here feed every vertex's base
/// each iteration.
///
/// The partial table is a fixed stack array (the chunk grain grows with
/// `n` so the table never overflows), keeping the fixpoint algorithms'
/// per-iteration calls allocation-free (DESIGN.md §12). Inputs the
/// dispatch rule ([`Schedule::runs_inline`], one unit of work per index)
/// keeps on the caller — fewer than 2048 — take the exact sequential loop,
/// preserving seq/par bit-equality for small graphs.
pub fn sum_f64<P, M>(_policy: P, ctx: &Context, n: usize, map: M) -> f64
where
    P: ExecutionPolicy,
    M: Fn(usize) -> f64 + Sync,
{
    const GRAIN: usize = 1024;
    const MAX_CHUNKS: usize = 4096;
    let grain = GRAIN.max(n.div_ceil(MAX_CHUNKS));
    if !P::IS_PARALLEL || ctx.num_threads() == 1 || Schedule::Dynamic(grain).runs_inline(n, n) {
        let mut acc = 0.0;
        for i in 0..n {
            acc += map(i);
        }
        return acc;
    }
    let mut partials = [0.0f64; MAX_CHUNKS];
    let partials = &mut partials[..n.div_ceil(grain)];
    let split = ChunkSplit::Len(1);
    try_for_each_chunk_mut(
        Some(ctx.pool()),
        partials,
        split,
        n,
        ChunkHooks::none(),
        |c, slot| {
            let mut local = 0.0;
            for i in c * grain..((c + 1) * grain).min(n) {
                local += map(i);
            }
            slot[0] = local;
        },
    )
    .unwrap_or_else(|e| panic!("{e}"));
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_parallel::execution;

    #[test]
    fn reduce_policy_equivalence_exact_for_integers() {
        let ctx = Context::new(4);
        let seq = reduce(
            execution::seq,
            &ctx,
            100_000,
            0u64,
            |i| i as u64,
            |a, b| a + b,
        );
        let par = reduce(
            execution::par,
            &ctx,
            100_000,
            0u64,
            |i| i as u64,
            |a, b| a + b,
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn count_if_counts() {
        let ctx = Context::new(4);
        assert_eq!(count_if(execution::par, &ctx, 10_000, |i| i % 7 == 0), 1429);
    }

    #[test]
    fn max_and_sum() {
        let ctx = Context::new(2);
        assert_eq!(max_f64(execution::par, &ctx, 1000, |i| i as f64), 999.0);
        let s = sum_f64(execution::par, &ctx, 1000, |_| 0.5);
        assert!((s - 500.0).abs() < 1e-9);
    }

    #[test]
    fn sum_f64_parallel_path_matches_sequential_within_tolerance() {
        let ctx = Context::new(4);
        // n well past the sequential cutoff so the chunk-claiming path runs.
        let n = 100_000;
        let seq = sum_f64(execution::seq, &ctx, n, |i| 1.0 / (i + 1) as f64);
        let par = sum_f64(execution::par, &ctx, n, |i| 1.0 / (i + 1) as f64);
        assert!((seq - par).abs() < 1e-9, "{seq} vs {par}");
        // Integer-valued maps reassociate exactly.
        let exact = sum_f64(execution::par, &ctx, n, |i| (i % 7) as f64);
        assert_eq!(exact, (0..n).map(|i| (i % 7) as f64).sum::<f64>());
    }

    #[test]
    fn sum_f64_is_bit_deterministic_across_runs_and_pool_widths() {
        // Rounding-sensitive map, n past the cutoff so the chunked parallel
        // path runs. The per-chunk partial table makes the association a
        // function of n alone, so every pool width and every repeat must
        // produce the same bits — the compressed-vs-raw PageRank
        // differential depends on exactly this.
        let n = 100_000;
        let map = |i: usize| 1.0 / (i + 1) as f64;
        let baseline = sum_f64(execution::par, &Context::new(2), n, map);
        for threads in [2, 3, 4, 8] {
            let ctx = Context::new(threads);
            for _ in 0..3 {
                let s = sum_f64(execution::par, &ctx, n, map);
                assert_eq!(s.to_bits(), baseline.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_reduction_yields_identity() {
        let ctx = Context::new(2);
        assert_eq!(
            reduce(execution::par, &ctx, 0, 7u32, |_| 0, |a, b| a + b),
            7
        );
        assert_eq!(max_f64(execution::seq, &ctx, 0, |_| 1.0), f64::NEG_INFINITY);
    }
}
