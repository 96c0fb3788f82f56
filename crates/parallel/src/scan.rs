//! Parallel exclusive prefix sum (scan).
//!
//! The compressed-graph builder places each row's bytes with a prefix sum
//! over per-vertex coded lengths; on large graphs that serial scan is
//! itself a parallelism bottleneck. This module provides the classic
//! two-pass chunked scan on the chunk loop ([`try_for_each_chunk_mut`]):
//! each chunk writes the inclusive scan of its own window, a serial scan
//! over the (one per worker) chunk totals gives each chunk its offset, and
//! a second pass shifts every window into its exclusive place. Both
//! passes write disjoint windows, so the only synchronization is the two
//! region joins.
//!
//! The `_with` variant takes caller-owned output and chunk-sum buffers so a
//! steady-state caller performs no heap allocation.

use crate::exec::ChunkHooks;
use crate::pool::{try_for_each_chunk_mut, ChunkSplit, ThreadPool};
use crate::schedule::Schedule;

/// Exclusive prefix sum of `value(0), …, value(n-1)` into `out`, reusing
/// caller-owned buffers.
///
/// On return `out` has length `n + 1` with `out[i] = Σ value(j) for j < i`
/// and `out[n]` the grand total (also the return value). `chunk_sums` is
/// scratch for the per-chunk offsets; both buffers are grown on demand and
/// never shrunk, so repeated calls at steady state allocate nothing. A
/// scan the dispatch rule ([`Schedule::runs_inline`]) keeps on its caller
/// is one serial pass.
///
/// `value` is evaluated exactly once per index.
pub fn parallel_scan_with<F>(
    pool: &ThreadPool,
    n: usize,
    value: F,
    out: &mut Vec<usize>,
    chunk_sums: &mut Vec<usize>,
) -> usize
where
    F: Fn(usize) -> usize + Sync,
{
    out.resize(n + 1, 0);
    // One chunk per worker: the scan's cost is its two memory passes, so
    // more chunks would only add claims.
    let len = n.div_ceil(pool.num_threads()).max(1);
    if Schedule::Dynamic(len).runs_inline(n, n) {
        let mut acc = 0usize;
        for (i, slot) in out.iter_mut().enumerate().take(n) {
            *slot = acc;
            acc += value(i);
        }
        out[n] = acc;
        return acc;
    }
    let split = ChunkSplit::Len(len);
    // Pass 1: each chunk's inclusive scan, so its last slot is its total.
    try_for_each_chunk_mut(
        Some(pool),
        &mut out[..n],
        split,
        n,
        ChunkHooks::none(),
        |c, window| {
            let mut acc = 0usize;
            for (j, slot) in window.iter_mut().enumerate() {
                acc += value(c * len + j);
                *slot = acc;
            }
        },
    )
    .unwrap_or_else(|e| panic!("{e}"));
    // Serial exclusive scan over the chunk totals.
    chunk_sums.resize(n.div_ceil(len), 0);
    let mut total = 0usize;
    for (sum, window) in chunk_sums.iter_mut().zip(out[..n].chunks(len)) {
        *sum = total;
        total += window[window.len() - 1];
    }
    // Pass 2: slot j of chunk c becomes the chunk's offset plus slot
    // j - 1's inclusive sum.
    let sums = &*chunk_sums;
    try_for_each_chunk_mut(
        Some(pool),
        &mut out[..n],
        split,
        n,
        ChunkHooks::none(),
        |c, window| {
            let mut prev = sums[c];
            for slot in window {
                let inclusive = *slot;
                *slot = prev;
                prev = sums[c] + inclusive;
            }
        },
    )
    .unwrap_or_else(|e| panic!("{e}"));
    out[n] = total;
    total
}

/// Exclusive prefix sum of a slice into `out` (see [`parallel_scan_with`]).
/// Allocates its own chunk-sum scratch; use the `_with` variant on hot paths.
pub fn parallel_scan(pool: &ThreadPool, values: &[usize], out: &mut Vec<usize>) -> usize {
    let mut chunk_sums = Vec::new(); // alloc-ok: convenience wrapper; hot callers use the _with variant
    parallel_scan_with(pool, values.len(), |i| values[i], out, &mut chunk_sums)
}

/// Serial exclusive prefix sum — the reference implementation the parallel
/// scan is verified and benchmarked against.
pub fn serial_scan(values: &[usize], out: &mut Vec<usize>) -> usize {
    out.clear();
    out.reserve(values.len() + 1);
    let mut acc = 0usize;
    for &v in values {
        out.push(acc); // alloc-ok: reserved above; serial reference implementation
        acc += v;
    }
    out.push(acc); // alloc-ok: reserved above
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(pool: &ThreadPool, values: &[usize]) {
        let mut want = Vec::new();
        let want_total = serial_scan(values, &mut want);
        let mut got = Vec::new();
        let total = parallel_scan(pool, values, &mut got);
        assert_eq!(got, want);
        assert_eq!(total, want_total);
    }

    #[test]
    fn matches_serial_on_edge_shapes() {
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            check(&pool, &[]);
            check(&pool, &[7]);
            check(&pool, &[0, 0, 0]);
            let ramp: Vec<usize> = (0..100_003).map(|i| i % 17).collect();
            check(&pool, &ramp);
        }
    }

    #[test]
    fn million_element_scan() {
        let pool = ThreadPool::new(8);
        let values: Vec<usize> = (0..1_500_000).map(|i| (i * 31) % 5).collect();
        check(&pool, &values);
    }

    #[test]
    fn with_variant_reuses_buffers_and_counts_evaluations() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = ThreadPool::new(4);
        let mut out = Vec::new();
        let mut sums = Vec::new();
        let n = 50_000;
        let evals = AtomicUsize::new(0);
        let total = parallel_scan_with(
            &pool,
            n,
            |i| {
                evals.fetch_add(1, Ordering::Relaxed);
                i % 3
            },
            &mut out,
            &mut sums,
        );
        assert_eq!(evals.load(Ordering::Relaxed), n);
        assert_eq!(out.len(), n + 1);
        assert_eq!(total, (0..n).map(|i| i % 3).sum::<usize>());
        // Second run with the same shape must not need more capacity.
        let cap_out = out.capacity();
        let cap_sums = sums.capacity();
        parallel_scan_with(&pool, n, |i| i % 3, &mut out, &mut sums);
        assert_eq!(out.capacity(), cap_out);
        assert_eq!(sums.capacity(), cap_sums);
    }
}
