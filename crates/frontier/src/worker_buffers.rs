//! Lock-free per-worker output buffers for frontier expansion.
//!
//! Listing 3 of the paper guards `output.add_vertex(n)` with a mutex; that
//! is correct but serializes the hot path, and even per-worker `Mutex<Vec>`
//! buffers pay an atomic RMW per push and false-share adjacent headers.
//! `WorkerBuffers` drops both costs: each worker's `Vec` lives in its own
//! cache-line-aligned slot behind an `UnsafeCell`, and a push is a plain
//! `Vec::push`. Capacity is retained across [`WorkerBuffers::drain_into`]
//! calls, so a steady-state BSP iteration that reuses one `WorkerBuffers`
//! (the advance scratch) performs no heap allocation.
//!
//! Safety model: mutation through the shared [`WorkerView`] is `unsafe` with
//! a single contract — slot `tid` is touched by at most one thread at a time.
//! The thread-pool's parallel regions provide exactly that (each worker id
//! runs on one OS thread), and debug builds verify it by recording the first
//! claiming thread per slot per region. Algorithm code never sees the
//! `unsafe`: it is confined to the advance operators in `essentials-core`.

use std::cell::UnsafeCell;

use essentials_graph::VertexId;

/// One worker's buffer in its own cache line (128 bytes covers the spatial
/// prefetcher pairing lines on x86).
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    buf: UnsafeCell<Vec<VertexId>>,
    /// Debug-only owner tracking: hash of the first thread to push into this
    /// slot since the last reset; 0 = unclaimed.
    #[cfg(debug_assertions)]
    owner: std::sync::atomic::AtomicU64,
}

/// Per-worker, lock-free output buffers (see module docs).
#[derive(Default)]
pub struct WorkerBuffers {
    slots: Box<[Slot]>,
}

impl WorkerBuffers {
    /// Buffers for `workers` worker threads (minimum 1).
    pub fn new(workers: usize) -> Self {
        WorkerBuffers {
            slots: (0..workers.max(1)).map(|_| Slot::default()).collect(), // alloc-ok: cold constructor
        }
    }

    /// Number of worker slots.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Grows (never shrinks) to at least `workers` slots, keeping existing
    /// buffer capacity.
    pub fn ensure_workers(&mut self, workers: usize) {
        if workers > self.slots.len() {
            let mut slots = std::mem::take(&mut self.slots).into_vec();
            slots.resize_with(workers, Slot::default);
            self.slots = slots.into_boxed_slice();
        }
    }

    /// Total buffered entries.
    pub fn len(&mut self) -> usize {
        self.slots.iter_mut().map(|s| s.buf.get_mut().len()).sum()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Shared view for one parallel region. Taking `&mut self` guarantees no
    /// other view exists when the region starts; debug owner tracking is
    /// reset so the new region's claims start fresh.
    pub fn view(&mut self) -> WorkerView<'_> {
        #[cfg(debug_assertions)]
        for s in self.slots.iter() {
            s.owner.store(0, std::sync::atomic::Ordering::Relaxed);
        }
        WorkerView { slots: &self.slots }
    }

    /// Moves every buffered entry into `out` (appending), emptying the
    /// buffers but keeping their capacity. Concatenation order follows
    /// worker id, so the result is deterministic given a deterministic work
    /// division.
    ///
    /// Each emptied buffer is then reserved to the drained total: a dynamic
    /// schedule may hand any one worker the whole of a later output, so
    /// once an output of some size has been drained, no output up to that
    /// size grows a buffer again, whichever worker draws which share. The
    /// price is capacity: every buffer holds the largest output drained,
    /// so the set holds workers × that many ids.
    pub fn drain_into(&mut self, out: &mut Vec<VertexId>) {
        let total: usize = self.len();
        out.reserve(total);
        for s in self.slots.iter_mut() {
            let buf = s.buf.get_mut();
            out.append(buf);
            buf.reserve_exact(total);
        }
    }

    /// Per-worker buffered entry counts, in worker-id order. Read between a
    /// parallel region and [`WorkerBuffers::drain_into`], this is the
    /// per-worker push distribution of the region (observability's
    /// load-balance skew input). Allocates; callers gate on whether anyone
    /// wants the detail.
    pub fn slot_lens(&mut self) -> Vec<usize> {
        self.slots
            .iter_mut()
            .map(|s| s.buf.get_mut().len())
            .collect() // alloc-ok: detail path, gated on a sink requesting per-worker stats
    }

    /// Direct access to one worker's buffer (sequential paths).
    pub fn slot_mut(&mut self, tid: usize) -> &mut Vec<VertexId> {
        let n = self.slots.len();
        self.slots[tid % n].buf.get_mut()
    }
}

/// Shared, `Sync` view over the buffers for the duration of one parallel
/// region. See [`WorkerView::push`] for the access contract.
pub struct WorkerView<'a> {
    slots: &'a [Slot],
}

// SAFETY: all mutation goes through `push`, whose contract restricts each
// slot to a single thread at a time; distinct slots never alias.
unsafe impl Sync for WorkerView<'_> {}

impl WorkerView<'_> {
    /// Appends `v` to worker `tid`'s buffer without synchronization.
    ///
    /// # Safety
    ///
    /// At any instant, at most one thread may be inside `push` for a given
    /// `tid`. Pool regions satisfy this by passing each closure its own
    /// worker id; callers must forward that id unchanged. Debug builds
    /// assert the claim by pinning each slot to its first pushing thread
    /// for the lifetime of the view.
    #[inline]
    pub unsafe fn push(&self, tid: usize, v: VertexId) {
        let slot = &self.slots[tid % self.slots.len()];
        #[cfg(debug_assertions)]
        {
            use std::hash::{Hash, Hasher};
            use std::sync::atomic::Ordering;
            let mut h = std::hash::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            let me = h.finish() | 1; // never 0
            let seen = slot
                .owner
                .compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed);
            if let Err(prev) = seen {
                assert_eq!(
                    prev, me,
                    "WorkerView slot {tid} pushed from two different threads"
                );
            }
        }
        // SAFETY: the caller's contract (this fn is `unsafe`) guarantees
        // `tid` is this worker's own slot, so the UnsafeCell is never
        // accessed from two threads at once.
        unsafe { (*slot.buf.get()).push(v) }; // alloc-ok: amortized growth; steady state is alloc-free (tests/zero_alloc.rs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_parallel::{Schedule, ThreadPool};

    #[test]
    #[cfg_attr(miri, ignore)] // spins up a real thread pool; Miri runs the serial tests
    fn parallel_pushes_are_all_collected() {
        let pool = ThreadPool::new(4);
        let mut buffers = WorkerBuffers::new(4);
        let view = buffers.view();
        pool.parallel_for_with(0..10_000, Schedule::Dynamic(64), |tid, i| {
            // SAFETY: tid is this worker's own id from the pool.
            unsafe { view.push(tid, i as VertexId) };
        });
        let mut out = Vec::new();
        buffers.drain_into(&mut out);
        out.sort_unstable();
        assert_eq!(out, (0..10_000).collect::<Vec<VertexId>>());
        assert!(buffers.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spins up a real thread pool; Miri runs the serial tests
    fn capacity_is_retained_across_drains() {
        let pool = ThreadPool::new(2);
        let mut buffers = WorkerBuffers::new(2);
        let mut out = Vec::new();
        let mut caps = Vec::new();
        for _ in 0..3 {
            let view = buffers.view();
            // SAFETY: tid is this worker's own id from the pool.
            pool.parallel_for_with(0..4096, Schedule::Static, |tid, i| unsafe {
                view.push(tid, i as VertexId)
            });
            out.clear();
            buffers.drain_into(&mut out);
            assert_eq!(out.len(), 4096);
            caps.push(
                (0..2)
                    .map(|t| buffers.slot_mut(t).capacity())
                    .collect::<Vec<_>>(),
            );
        }
        // After the first round grows the buffers, later rounds reuse them.
        assert_eq!(caps[1], caps[2]);
    }

    #[test]
    fn ensure_workers_grows_without_dropping_slots() {
        let mut buffers = WorkerBuffers::new(2);
        buffers.slot_mut(0).push(7);
        buffers.ensure_workers(6);
        assert_eq!(buffers.workers(), 6);
        buffers.ensure_workers(3); // never shrinks
        assert_eq!(buffers.workers(), 6);
        let mut out = Vec::new();
        buffers.drain_into(&mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn slot_lens_reports_per_worker_counts() {
        let mut buffers = WorkerBuffers::new(3);
        buffers.slot_mut(0).push(1);
        buffers.slot_mut(0).push(2);
        buffers.slot_mut(2).push(3);
        assert_eq!(buffers.slot_lens(), vec![2, 0, 1]);
        let mut out = Vec::new();
        buffers.drain_into(&mut out);
        assert_eq!(buffers.slot_lens(), vec![0, 0, 0]);
    }

    #[test]
    fn slots_are_cache_line_separated() {
        assert!(std::mem::align_of::<Slot>() >= 128);
        assert!(std::mem::size_of::<Slot>() >= 128);
    }
}
