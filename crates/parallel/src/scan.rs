//! Parallel exclusive prefix sum (scan).
//!
//! The compressed-graph builder places each row's bytes with a prefix sum
//! over per-vertex coded lengths; on large graphs that serial scan is
//! itself a parallelism bottleneck. This module provides the classic
//! two-pass chunked scan: workers scan disjoint chunks locally, a serial
//! scan over the (≤ #workers) chunk totals produces per-chunk offsets, and a
//! second pass shifts each chunk into place. Both passes write disjoint
//! ranges, so the only synchronization is the two region barriers.
//!
//! The `_with` variant takes caller-owned output and chunk-sum buffers so a
//! steady-state caller performs no heap allocation.

use std::ops::Range;

use crate::pool::ThreadPool;

/// Below this element count the serial scan wins (two barriers cost more
/// than the memory pass they save).
const SEQUENTIAL_CUTOFF: usize = 8 * 1024;

/// Shares a mutable slice across pool workers writing disjoint ranges.
struct DisjointWrites<'a, T>(*mut T, std::marker::PhantomData<&'a mut [T]>);

// SAFETY: callers hand each worker a non-overlapping index range (asserted
// by construction in the passes below), so concurrent writes never alias.
unsafe impl<T: Send> Sync for DisjointWrites<'_, T> {}

impl<'a, T> DisjointWrites<'a, T> {
    fn new(slice: &'a mut [T]) -> Self {
        DisjointWrites(slice.as_mut_ptr(), std::marker::PhantomData)
    }

    /// # Safety
    ///
    /// `i` must be in bounds of the original slice and not written
    /// concurrently by another worker.
    #[inline]
    unsafe fn write(&self, i: usize, v: T) {
        // SAFETY: caller upholds the `# Safety` contract above (in-bounds,
        // unaliased write).
        unsafe { self.0.add(i).write(v) };
    }

    /// # Safety
    ///
    /// `i` must be in bounds and not written concurrently.
    #[inline]
    unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        // SAFETY: caller upholds the `# Safety` contract above (in-bounds,
        // no concurrent writer).
        unsafe { self.0.add(i).read() }
    }
}

/// The contiguous chunk of `0..n` owned by worker `tid` out of `workers`.
#[inline]
fn chunk_of(n: usize, workers: usize, tid: usize) -> Range<usize> {
    let chunk = n.div_ceil(workers);
    let lo = (tid * chunk).min(n);
    let hi = ((tid + 1) * chunk).min(n);
    lo..hi
}

/// Exclusive prefix sum of `value(0), …, value(n-1)` into `out`, reusing
/// caller-owned buffers.
///
/// On return `out` has length `n + 1` with `out[i] = Σ value(j) for j < i`
/// and `out[n]` the grand total (also the return value). `chunk_sums` is
/// scratch for the per-worker totals; both buffers are grown on demand and
/// never shrunk, so repeated calls at steady state allocate nothing.
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
    let workers = pool.num_threads();
    if workers == 1 || n < SEQUENTIAL_CUTOFF {
        let mut acc = 0usize;
        for (i, slot) in out.iter_mut().enumerate().take(n) {
            *slot = acc;
            acc += value(i);
        }
        out[n] = acc;
        return acc;
    }

    chunk_sums.resize(workers, 0);
    // Pass 1: each worker writes the local exclusive scan of its chunk into
    // `out` and its chunk total into `chunk_sums`.
    {
        let out_w = DisjointWrites::new(&mut out[..n]);
        let sums_w = DisjointWrites::new(chunk_sums.as_mut_slice());
        pool.run(|tid| {
            let mut acc = 0usize;
            for i in chunk_of(n, workers, tid) {
                // SAFETY: chunks are disjoint per tid; sums slot is tid's own.
                unsafe { out_w.write(i, acc) };
                acc += value(i);
            }
            // SAFETY: slot `tid` of `chunk_sums` is owned by this worker.
            unsafe { sums_w.write(tid, acc) };
        });
    }
    // Serial exclusive scan over the ≤ #workers chunk totals.
    let mut total = 0usize;
    for s in chunk_sums.iter_mut() {
        let c = *s;
        *s = total;
        total += c;
    }
    // Pass 2: shift each chunk by its offset.
    {
        let out_w = DisjointWrites::new(&mut out[..n]);
        let sums = &*chunk_sums;
        pool.run(|tid| {
            let base = sums[tid];
            if base != 0 {
                for i in chunk_of(n, workers, tid) {
                    // SAFETY: same disjoint chunk as pass 1.
                    unsafe { out_w.write(i, out_w.read(i) + base) };
                }
            }
        });
    }
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
