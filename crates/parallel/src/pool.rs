//! A thread pool of persistent workers executing *parallel regions*.
//!
//! A region is a closure invoked once on every worker (OpenMP's
//! `#pragma omp parallel`). Data-parallel loops ([`ThreadPool::parallel_for`])
//! and reductions are built on top by handing each worker a slice of the
//! iteration space according to a [`Schedule`].
//!
//! Workers park on a condition variable between regions, so an idle pool
//! costs nothing. The caller of [`ThreadPool::run`] blocks until every
//! worker has finished the region — this is the guarantee that makes the
//! internal lifetime erasure sound (the region closure may borrow the
//! caller's stack).
//!
//! Panics are *captured, not fatal*: workers run region closures under
//! `catch_unwind`, the fallible loops additionally catch per chunk so a
//! panicking chunk drains the rest of the iteration space, and the first
//! panic surfaces to the caller as [`ExecError::WorkerPanic`] (or a caller
//! panic through the infallible wrappers). The pool itself stays usable
//! afterwards.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::exec::{
    panic_payload_string, BudgetReason, ChunkAction, ChunkHooks, ExecError, Progress,
};
use crate::placement::Placement;
use crate::schedule::Schedule;

/// A region closure as seen by the workers: called with the worker id.
type RegionFn = dyn Fn(usize) + Sync;

/// Most workers a segmented dynamic loop will track with per-worker claim
/// cursors; larger pools fall back to the shared-counter schedule. The
/// cursor array lives on the caller's stack (zero allocations on the hot
/// path), so this also bounds that frame.
const MAX_SEGMENTS: usize = 32;

/// One per-worker claim cursor, padded to a cache line so local claims
/// never false-share with a neighbor's.
#[repr(align(64))]
struct PaddedCursor(AtomicUsize);

/// State shared between the pool handle and its workers.
struct Shared {
    slot: Mutex<RegionSlot>,
    /// Workers wait here for a new region (or shutdown).
    work_cv: Condvar,
    /// The caller of `run` waits here for region completion.
    done_cv: Condvar,
}

struct RegionSlot {
    /// Bumped once per region; workers use it to detect new work.
    epoch: u64,
    /// The current region, lifetime-erased. Only valid while `remaining > 0`
    /// for the matching epoch; `run` keeps the real closure alive until then.
    job: Option<&'static RegionFn>,
    /// Workers that have not yet finished the current region.
    remaining: usize,
    /// First panic that escaped a region closure this epoch: stringified
    /// payload + worker id. Taken by `try_run` after the region completes.
    panic: Option<(String, usize)>,
    shutdown: bool,
}

/// A pool of persistent worker threads executing parallel regions.
///
/// ```
/// use essentials_parallel::{Schedule, ThreadPool};
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ThreadPool::new(4);
/// let sum = AtomicUsize::new(0);
/// pool.parallel_for(0..1000, Schedule::default(), |i| {
///     sum.fetch_add(i, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 499_500);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    num_threads: usize,
    /// Serializes regions: one region at a time per pool.
    region_guard: Mutex<()>,
    /// Optional locality hint consumed by `Schedule::Dynamic` loops: each
    /// worker drains its own segment of the chunk space before stealing.
    placement: Mutex<Option<Arc<Placement>>>,
}

thread_local! {
    /// True while the current thread is executing inside a region of some
    /// pool. Used to reject (unsupported) nested regions early.
    static IN_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl ThreadPool {
    /// Creates a pool with `num_threads` workers (minimum 1). Workers are
    /// additionally pinned to cores when `ESSENTIALS_PIN=1` is set.
    pub fn new(num_threads: usize) -> Self {
        let pin = std::env::var("ESSENTIALS_PIN")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        Self::with_options(num_threads, pin)
    }

    /// Creates a pool whose workers are pinned to cores (worker `tid` →
    /// core `tid mod hardware_parallelism`, best effort). Stable worker
    /// ids then correspond to stable cache domains, which is what the
    /// placement-aware schedule assumes (DESIGN.md §12).
    pub fn new_pinned(num_threads: usize) -> Self {
        Self::with_options(num_threads, true)
    }

    fn with_options(num_threads: usize, pin: bool) -> Self {
        let num_threads = num_threads.max(1);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(RegionSlot {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..num_threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("essentials-worker-{tid}"))
                    .spawn(move || {
                        if pin {
                            // Best effort: a refused mask (cpuset limits,
                            // non-Linux host) leaves the worker unpinned.
                            let _ = crate::affinity::pin_current_thread(tid % cores);
                        }
                        worker_loop(&shared, tid)
                    })
                    .expect("failed to spawn pool worker") // unwrap-ok: startup resource failure, no run to fail
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            num_threads,
            region_guard: Mutex::new(()),
            placement: Mutex::new(None),
        }
    }

    /// Installs (or clears) the locality hint consumed by dynamic loops.
    /// The placement's segments are rescaled onto each loop's chunk space;
    /// a placement whose worker count differs from the pool's is ignored.
    pub fn set_placement(&self, placement: Option<Arc<Placement>>) {
        *self.placement.lock() = placement;
    }

    /// The currently installed locality hint, if any.
    pub fn placement(&self) -> Option<Arc<Placement>> {
        self.placement.lock().clone()
    }

    /// A process-wide pool sized to the available hardware parallelism.
    pub fn global() -> &'static ThreadPool {
        static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            ThreadPool::new(n)
        })
    }

    /// Number of workers in the pool.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Executes `f(worker_id)` once on every worker, blocking until all
    /// workers finish. This is the primitive every parallel operator in the
    /// framework lowers to.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a region (nested regions would deadlock
    /// the fixed-size pool, so they are rejected). A panic in `f` does
    /// *not* abort the process: the worker captures it with
    /// `catch_unwind`, every other worker still runs the region to
    /// completion, and the first panic is re-raised on the calling thread
    /// with its payload. Use [`ThreadPool::try_run`] to receive it as a
    /// typed [`ExecError::WorkerPanic`] instead.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if let Err(e) = self.try_run(f) {
            panic!("{e}");
        }
    }

    /// Fallible form of [`ThreadPool::run`]: a panic in `f` is captured and
    /// returned as [`ExecError::WorkerPanic`] (with `chunk` = worker id)
    /// after all workers have finished the region. The pool remains usable.
    pub fn try_run<F>(&self, f: F) -> Result<(), ExecError>
    where
        F: Fn(usize) + Sync,
    {
        assert!(
            !IN_REGION.with(|c| c.get()),
            "nested parallel regions are not supported"
        );
        let _serial = self.region_guard.lock();

        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: we erase the lifetime of `f_ref` to store it in the shared
        // slot. The reference is only dereferenced by workers between the
        // epoch bump below and the `remaining == 0` wakeup, and this function
        // does not return (keeping `f` alive) until `remaining == 0` — the
        // per-worker `catch_unwind` guarantees every worker reaches its
        // decrement even when `f` panics.
        let job: &'static RegionFn = unsafe { std::mem::transmute(f_ref) };

        let mut slot = self.shared.slot.lock();
        slot.epoch += 1;
        slot.job = Some(job);
        slot.remaining = self.num_threads;
        self.shared.work_cv.notify_all();
        while slot.remaining > 0 {
            self.shared.done_cv.wait(&mut slot);
        }
        slot.job = None;
        match slot.panic.take() {
            Some((payload, worker)) => Err(ExecError::WorkerPanic {
                payload,
                chunk: worker,
            }),
            None => Ok(()),
        }
    }

    /// Data-parallel loop over `range` with the given [`Schedule`].
    ///
    /// Falls back to a plain sequential loop when the pool has one worker or
    /// the range is too small to be worth distributing. A panic in `f` is
    /// captured at chunk granularity — every other chunk still runs exactly
    /// once — and re-raised on the calling thread; use
    /// [`ThreadPool::try_parallel_for`] for a typed error instead.
    pub fn parallel_for<F>(&self, range: Range<usize>, schedule: Schedule, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for_with(range, schedule, |_tid, i| f(i));
    }

    /// Like [`ThreadPool::parallel_for`], but the closure also receives the
    /// worker id executing the index — the hook for per-thread output
    /// buffers (frontier collectors) without a shared lock. Sequential
    /// fallbacks report worker id 0. Same capture-and-report panic
    /// semantics as [`ThreadPool::parallel_for`].
    pub fn parallel_for_with<F>(&self, range: Range<usize>, schedule: Schedule, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if let Err(e) = self.try_parallel_for_with(range, schedule, ChunkHooks::none(), f) {
            panic!("{e}");
        }
    }

    /// Fallible form of [`ThreadPool::parallel_for`]: budget hooks are
    /// consulted at chunk boundaries and a panic in `f` becomes
    /// [`ExecError::WorkerPanic`].
    pub fn try_parallel_for<F>(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        hooks: ChunkHooks<'_>,
        f: F,
    ) -> Result<(), ExecError>
    where
        F: Fn(usize) + Sync,
    {
        self.try_parallel_for_with(range, schedule, hooks, |_tid, i| f(i))
    }

    /// Fallible data-parallel loop: the workhorse behind both the
    /// infallible wrappers and the operators' `try_*` paths.
    ///
    /// Before each chunk the `hooks` are consulted (one branch per
    /// configured hook, relaxed loads, deadline probe amortized): on a
    /// budget stop workers take no further chunks and the call returns
    /// [`ExecError::Budget`]. A panic inside a chunk — organic or injected
    /// by a fault plan — is captured by a per-chunk `catch_unwind`; the
    /// *remaining* chunks still run exactly once (the iteration space is
    /// drained) and the first panic is reported as
    /// [`ExecError::WorkerPanic`] naming the failing chunk.
    ///
    /// Chunk ids are schedule-specific: `Dynamic(g)` numbers chunks
    /// `(lo - range.start) / g` (stable across thread counts), `Static`
    /// uses the worker id, `Guided` a claim ordinal. Sequential fallbacks
    /// chunk by the dynamic grain (one chunk for `Static`) so `Dynamic`
    /// fault coordinates stay meaningful at every thread count.
    pub fn try_parallel_for_with<F>(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        hooks: ChunkHooks<'_>,
        f: F,
    ) -> Result<(), ExecError>
    where
        F: Fn(usize, usize) + Sync,
    {
        self.try_for_with_cutoff(range, schedule, schedule.sequential_cutoff(), hooks, f)
    }

    /// Runs `f(worker, chunk)` once for every chunk id in `0..nchunks` —
    /// [`ThreadPool::try_parallel_for_with`] under `Schedule::Dynamic(1)`
    /// without the sequential cut-off, for loops whose items are already
    /// coarse chunks of work (a bin flush, a source-window pass) and so pay
    /// for the pool even when there are only a few of them.
    pub fn try_for_each_chunk<F>(
        &self,
        nchunks: usize,
        hooks: ChunkHooks<'_>,
        f: F,
    ) -> Result<(), ExecError>
    where
        F: Fn(usize, usize) + Sync,
    {
        self.try_for_with_cutoff(0..nchunks, Schedule::Dynamic(1), 2, hooks, f)
    }

    /// [`ThreadPool::try_parallel_for_with`] with ranges shorter than
    /// `cutoff` running on the calling thread.
    fn try_for_with_cutoff<F>(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        cutoff: usize,
        hooks: ChunkHooks<'_>,
        f: F,
    ) -> Result<(), ExecError>
    where
        F: Fn(usize, usize) + Sync,
    {
        let len = range.end.saturating_sub(range.start);
        if self.num_threads == 1 || len < cutoff {
            return try_sequential_for_with(range, schedule, hooks, f);
        }
        let outcome = RegionOutcome::default();
        let f = &f;
        let n = self.num_threads;
        match schedule {
            Schedule::Static => {
                let chunk = len.div_ceil(n);
                self.try_run(|tid| {
                    if outcome.should_stop() {
                        return;
                    }
                    let lo = range.start + tid * chunk;
                    let hi = (lo + chunk).min(range.end);
                    if lo < hi {
                        run_chunk(&outcome, &hooks, f, tid, tid, lo, hi);
                    }
                })?;
            }
            Schedule::Dynamic(grain) => {
                let grain = grain.max(1);
                let nchunks = len.div_ceil(grain);
                // Segmented claiming: each worker owns a contiguous slice
                // of the *chunk id space* (its placement segment, or an
                // even split), drains it through a private cursor, then
                // steals from other segments. Chunk ids keep the exact
                // `(lo - start) / grain` numbering of the shared-counter
                // schedule, so fault-plan coordinates and the determinism
                // argument are untouched — only the claim order (which the
                // BSP contract already leaves free) changes. It applies as
                // soon as every worker has a chunk of its own, so a loop
                // over a few coarse chunks (bin flushes) runs each chunk on
                // the same worker, with its cache, call after call.
                if (2..=MAX_SEGMENTS).contains(&n) && nchunks >= n {
                    let placement = self.placement();
                    let mut bounds = [0usize; MAX_SEGMENTS + 1];
                    match placement.as_deref() {
                        Some(p) if p.workers() == n && !p.is_empty() => {
                            for (w, b) in bounds.iter_mut().enumerate().take(n) {
                                *b = p.scaled_segment(w, nchunks).start;
                            }
                            bounds[n] = nchunks;
                        }
                        _ => {
                            let seg = nchunks.div_ceil(n);
                            for (w, b) in bounds.iter_mut().enumerate().take(n + 1) {
                                *b = (w * seg).min(nchunks);
                            }
                        }
                    }
                    let cursors: [PaddedCursor; MAX_SEGMENTS] =
                        std::array::from_fn(|w| PaddedCursor(AtomicUsize::new(bounds[w])));
                    self.try_run(|tid| {
                        // Local segment first, then steal round-robin.
                        for k in 0..n {
                            let w = (tid + k) % n;
                            loop {
                                if outcome.should_stop() {
                                    return;
                                }
                                let chunk = cursors[w].0.fetch_add(1, Ordering::Relaxed);
                                if chunk >= bounds[w + 1] {
                                    break;
                                }
                                let lo = range.start + chunk * grain;
                                let hi = (lo + grain).min(range.end);
                                if !run_chunk(&outcome, &hooks, f, tid, chunk, lo, hi) {
                                    return;
                                }
                            }
                        }
                    })?;
                } else {
                    let next = AtomicUsize::new(range.start);
                    self.try_run(|tid| loop {
                        if outcome.should_stop() {
                            break;
                        }
                        let lo = next.fetch_add(grain, Ordering::Relaxed);
                        if lo >= range.end {
                            break;
                        }
                        let hi = (lo + grain).min(range.end);
                        let chunk = (lo - range.start) / grain;
                        if !run_chunk(&outcome, &hooks, f, tid, chunk, lo, hi) {
                            break;
                        }
                    })?;
                }
            }
            Schedule::Guided(min_grain) => {
                let min_grain = min_grain.max(1);
                let next = AtomicUsize::new(range.start);
                let claims = AtomicUsize::new(0);
                self.try_run(|tid| loop {
                    if outcome.should_stop() {
                        break;
                    }
                    let mut lo = next.load(Ordering::Relaxed);
                    let hi = loop {
                        if lo >= range.end {
                            return;
                        }
                        let remaining = range.end - lo;
                        let chunk = (remaining / (2 * n)).max(min_grain);
                        let hi = (lo + chunk).min(range.end);
                        match next.compare_exchange_weak(
                            lo,
                            hi,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break hi,
                            Err(seen) => lo = seen,
                        }
                    };
                    let chunk = claims.fetch_add(1, Ordering::Relaxed);
                    if !run_chunk(&outcome, &hooks, f, tid, chunk, lo, hi) {
                        break;
                    }
                })?;
            }
        }
        outcome.into_result()
    }

    /// Parallel reduction: maps every index through `map`, combining results
    /// with `combine` starting from `identity` (which must be a true
    /// identity for `combine`, and `combine` associative, for deterministic
    /// totals up to reordering).
    pub fn parallel_reduce<T, M, C>(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        identity: T,
        map: M,
        combine: C,
    ) -> T
    where
        T: Clone + Send + Sync,
        M: Fn(usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync + Send,
    {
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return identity;
        }
        if self.num_threads == 1 || len < schedule.sequential_cutoff() {
            let mut acc = identity;
            for i in range {
                acc = combine(acc, map(i));
            }
            return acc;
        }
        let partials: Mutex<Vec<T>> = Mutex::new(Vec::with_capacity(self.num_threads));
        {
            let identity = &identity;
            let map = &map;
            let combine = &combine;
            let next = AtomicUsize::new(range.start);
            let grain = schedule.grain_hint(len, self.num_threads);
            self.run(|_| {
                let mut local = identity.clone();
                let mut did_work = false;
                loop {
                    let lo = next.fetch_add(grain, Ordering::Relaxed);
                    if lo >= range.end {
                        break;
                    }
                    did_work = true;
                    let hi = (lo + grain).min(range.end);
                    for i in lo..hi {
                        local = combine(local, map(i));
                    }
                }
                if did_work {
                    partials.lock().push(local);
                }
            });
        }
        partials.into_inner().into_iter().fold(identity, combine)
    }
}

/// Shared failure state of one fallible loop: the first captured panic,
/// the first budget stop, and a region-local flag telling sibling workers
/// to stop claiming chunks.
#[derive(Default)]
struct RegionOutcome {
    panic: Mutex<Option<(String, usize)>>,
    stop: Mutex<Option<BudgetReason>>,
    stopped: AtomicBool,
}

impl RegionOutcome {
    fn record_panic(&self, payload: String, chunk: usize) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some((payload, chunk));
        }
    }

    fn record_stop(&self, reason: BudgetReason) {
        let mut slot = self.stop.lock();
        if slot.is_none() {
            *slot = Some(reason);
        }
        self.stopped.store(true, Ordering::Relaxed);
    }

    fn should_stop(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    fn into_result(self) -> Result<(), ExecError> {
        if let Some((payload, chunk)) = self.panic.into_inner() {
            return Err(ExecError::WorkerPanic { payload, chunk });
        }
        if let Some(reason) = self.stop.into_inner() {
            return Err(ExecError::Budget {
                reason,
                progress: Progress::default(),
            });
        }
        Ok(())
    }
}

/// The calling-thread form of [`ThreadPool::try_parallel_for_with`], which
/// is what a sequential policy runs: `f(0, i)` for every `i` in `range`, in
/// order, chunked by the dynamic grain (one chunk for `Static`) under the
/// same hooks, chunk numbering and per-chunk panic capture — so `Dynamic`
/// fault coordinates mean the same thing at every thread count.
pub fn try_sequential_for_with<F>(
    range: Range<usize>,
    schedule: Schedule,
    hooks: ChunkHooks<'_>,
    f: F,
) -> Result<(), ExecError>
where
    F: Fn(usize, usize),
{
    let grain = match schedule {
        Schedule::Dynamic(g) | Schedule::Guided(g) => g.max(1),
        Schedule::Static => range.len().max(1),
    };
    let outcome = RegionOutcome::default();
    let mut lo = range.start;
    let mut chunk = 0usize;
    while lo < range.end {
        let hi = (lo + grain).min(range.end);
        if !run_chunk(&outcome, &hooks, &f, 0, chunk, lo, hi) {
            break;
        }
        lo = hi;
        chunk += 1;
    }
    outcome.into_result()
}

/// Runs one chunk of a fallible loop under its hooks and a per-chunk
/// `catch_unwind`. Returns `false` when the worker should stop claiming
/// chunks (budget stop); a *panicking* chunk returns `true` so siblings and
/// the worker itself keep draining the iteration space.
fn run_chunk<F>(
    outcome: &RegionOutcome,
    hooks: &ChunkHooks<'_>,
    f: &F,
    tid: usize,
    chunk: usize,
    lo: usize,
    hi: usize,
) -> bool
where
    F: Fn(usize, usize),
{
    match hooks.before_chunk(chunk) {
        ChunkAction::Run => {}
        ChunkAction::Stop(reason) => {
            outcome.record_stop(reason);
            return false;
        }
        ChunkAction::Panic {
            iteration,
            chunk: at,
        } => {
            // Injected faults go through the real panic machinery so the
            // capture path under test is the production path.
            let result = catch_unwind(AssertUnwindSafe(|| {
                panic!("injected fault at (iteration {iteration}, chunk {at})");
            }));
            if let Err(payload) = result {
                outcome.record_panic(panic_payload_string(&*payload), chunk);
            }
            return true;
        }
    }
    // The closure only touches state that is valid at every intermediate
    // step (atomics, worker-owned buffer slots), so observing it after a
    // panic is sound; the panic is reported, never swallowed.
    let result = catch_unwind(AssertUnwindSafe(|| {
        for i in lo..hi {
            f(tid, i);
        }
    }));
    if let Err(payload) = result {
        outcome.record_panic(panic_payload_string(&*payload), chunk);
    }
    true
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock();
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, tid: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen_epoch {
                    seen_epoch = slot.epoch;
                    break slot.job.expect("epoch bumped without a job"); // unwrap-ok: protocol invariant
                }
                shared.work_cv.wait(&mut slot);
            }
        };
        IN_REGION.with(|c| c.set(true));
        // Capture panics so `remaining` always reaches zero: the old
        // behavior (worker unwinds, region never completes) deadlocked the
        // caller. Region closures only touch state valid at every
        // intermediate step (atomics, mutexes, worker-owned slots), and the
        // panic is reported to the caller, never swallowed.
        let result = catch_unwind(AssertUnwindSafe(|| job(tid)));
        IN_REGION.with(|c| c.set(false));
        let mut slot = shared.slot.lock();
        if let Err(payload) = result {
            let payload = panic_payload_string(&*payload);
            if slot.panic.is_none() {
                slot.panic = Some((payload, tid));
            }
        }
        slot.remaining -= 1;
        if slot.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_visits_every_worker_exactly_once() {
        let pool = ThreadPool::new(4);
        let visits = [0u8; 4].map(|_| AtomicUsize::new(0));
        pool.run(|tid| {
            visits[tid].fetch_add(1, Ordering::Relaxed);
        });
        for v in &visits {
            assert_eq!(v.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn regions_are_reusable() {
        let pool = ThreadPool::new(3);
        let count = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.run(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn parallel_for_covers_range_once_for_all_schedules() {
        let pool = ThreadPool::new(4);
        for schedule in [
            Schedule::Static,
            Schedule::Dynamic(1),
            Schedule::Dynamic(7),
            Schedule::Guided(1),
            Schedule::Guided(16),
        ] {
            let n = 10_001;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(0..n, schedule, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "schedule {schedule:?} missed or duplicated indices"
            );
        }
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        // With capture-and-report semantics a panic would surface as an
        // error, so assert the closure is simply never called.
        let pool = ThreadPool::new(2);
        let calls = AtomicUsize::new(0);
        let result =
            pool.try_parallel_for_with(5..5, Schedule::Static, ChunkHooks::none(), |_, _| {
                calls.fetch_add(1, Ordering::Relaxed);
            });
        assert!(result.is_ok());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn panicking_chunk_drains_all_other_chunks_exactly_once() {
        let pool = ThreadPool::new(4);
        let n = 10_000;
        let grain = 64;
        let bad = 4321; // inside chunk 4321/64 = 67 (indices 4288..4352)
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let err = pool
            .try_parallel_for_with(
                0..n,
                Schedule::Dynamic(grain),
                ChunkHooks::none(),
                |_, i| {
                    if i == bad {
                        panic!("boom at {i}");
                    }
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap_err();
        match &err {
            ExecError::WorkerPanic { payload, chunk } => {
                assert!(payload.contains("boom at 4321"), "payload: {payload}");
                assert_eq!(*chunk, bad / grain);
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        let chunk_lo = (bad / grain) * grain;
        let chunk_hi = chunk_lo + grain;
        for (i, h) in hits.iter().enumerate() {
            let count = h.load(Ordering::Relaxed);
            if i < chunk_lo || i >= chunk_hi {
                assert_eq!(count, 1, "index {i} outside the panicking chunk");
            } else if i < bad {
                assert_eq!(count, 1, "index {i} before the panic point");
            } else {
                assert_eq!(count, 0, "index {i} at/after the panic point");
            }
        }
        // The pool stays usable after a captured panic.
        let sum = AtomicUsize::new(0);
        pool.parallel_for(0..1000, Schedule::Dynamic(32), |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 499_500);
    }

    #[test]
    fn try_run_reports_worker_panic_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let err = pool
            .try_run(|tid| {
                if tid == 2 {
                    panic!("worker {tid} down");
                }
            })
            .unwrap_err();
        match &err {
            ExecError::WorkerPanic { payload, chunk } => {
                assert!(payload.contains("worker 2 down"), "payload: {payload}");
                assert_eq!(*chunk, 2);
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // All workers completed the region and the pool is reusable.
        let count = AtomicUsize::new(0);
        pool.run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 4);
    }

    #[test]
    fn cancelled_hooks_stop_before_any_chunk() {
        let pool = ThreadPool::new(4);
        let token = crate::exec::CancelToken::new();
        token.cancel();
        let budget = crate::exec::RunBudget::unlimited().with_cancel(token);
        let ran = AtomicUsize::new(0);
        let err = pool
            .try_parallel_for_with(
                0..100_000,
                Schedule::Dynamic(64),
                budget.chunk_hooks(None),
                |_, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ExecError::Budget {
                reason: BudgetReason::Cancelled,
                ..
            }
        ));
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn injected_fault_panics_at_exact_chunk() {
        let pool = ThreadPool::new(4);
        let plan = crate::exec::FaultPlan::new().panic_at(0, 5);
        let budget = crate::exec::RunBudget::unlimited();
        let hooks = budget.chunk_hooks(Some(&plan));
        let n = 64 * 100;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let err = pool
            .try_parallel_for_with(0..n, Schedule::Dynamic(64), hooks, |_, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        match &err {
            ExecError::WorkerPanic { payload, chunk } => {
                assert!(payload.contains("injected fault"), "payload: {payload}");
                assert_eq!(*chunk, 5);
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // Every chunk except the injected one ran exactly once.
        for (i, h) in hits.iter().enumerate() {
            let expected = usize::from(i / 64 != 5);
            assert_eq!(h.load(Ordering::Relaxed), expected, "index {i}");
        }
    }

    #[test]
    fn expired_deadline_surfaces_as_budget_error() {
        let pool = ThreadPool::new(2);
        let budget = crate::exec::RunBudget::unlimited()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = pool
            .try_parallel_for_with(
                0..100_000,
                Schedule::Dynamic(64),
                budget.chunk_hooks(None),
                |_, _| {},
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ExecError::Budget {
                reason: BudgetReason::DeadlineExpired,
                ..
            }
        ));
    }

    #[test]
    fn sequential_fallback_has_same_capture_semantics() {
        // Small range -> runs on the calling thread; the panic must still
        // be captured per chunk and the rest of the range drained.
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let err = pool
            .try_parallel_for_with(0..100, Schedule::Dynamic(10), ChunkHooks::none(), |_, i| {
                if i == 55 {
                    panic!("mid-range");
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        match &err {
            ExecError::WorkerPanic { chunk, .. } => assert_eq!(*chunk, 5),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        for (i, h) in hits.iter().enumerate() {
            let expected = usize::from(!(55..60).contains(&i));
            assert_eq!(h.load(Ordering::Relaxed), expected, "index {i}");
        }
    }

    #[test]
    fn parallel_reduce_sums_correctly() {
        let pool = ThreadPool::new(4);
        let total = pool.parallel_reduce(
            0..100_000,
            Schedule::Dynamic(1024),
            0u64,
            |i| i as u64,
            |a, b| a + b,
        );
        assert_eq!(total, 100_000 * 99_999 / 2);
    }

    #[test]
    fn parallel_reduce_empty_returns_identity() {
        let pool = ThreadPool::new(2);
        let r = pool.parallel_reduce(3..3, Schedule::Static, 42u64, |_| 0, |a, b| a + b);
        assert_eq!(r, 42);
    }

    #[test]
    fn single_thread_pool_runs_inline_results() {
        let pool = ThreadPool::new(1);
        let sum = AtomicU64::new(0);
        pool.parallel_for(0..100, Schedule::Static, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn pool_drop_joins_workers() {
        // Must not hang.
        let pool = ThreadPool::new(4);
        pool.run(|_| {});
        drop(pool);
    }

    #[test]
    fn segmented_dynamic_covers_range_with_and_without_placement() {
        let pool = ThreadPool::new(4);
        let n = 50_000;
        for placement in [
            None,
            Some(Arc::new(Placement::even(n, 4))),
            Some(Arc::new(Placement::from_boundaries(vec![
                0, 40_000, 45_000, 48_000, 50_000,
            ]))),
            // Mismatched worker count: ignored, even split used.
            Some(Arc::new(Placement::even(n, 3))),
        ] {
            pool.set_placement(placement);
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_for(0..n, Schedule::Dynamic(64), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        pool.set_placement(None);
    }

    #[test]
    fn segmented_dynamic_keeps_chunk_ids_stable() {
        // Fault coordinates name chunks by `(lo - start) / grain`; the
        // segmented schedule must report the same ids as the shared
        // counter did.
        let pool = ThreadPool::new(4);
        pool.set_placement(Some(Arc::new(Placement::even(6400, 4))));
        let plan = crate::exec::FaultPlan::new().panic_at(0, 5);
        let budget = crate::exec::RunBudget::unlimited();
        let hooks = budget.chunk_hooks(Some(&plan));
        let err = pool
            .try_parallel_for_with(0..6400, Schedule::Dynamic(64), hooks, |_, _| {})
            .unwrap_err();
        match &err {
            ExecError::WorkerPanic { chunk, .. } => assert_eq!(*chunk, 5),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        pool.set_placement(None);
    }

    #[test]
    fn pinned_pool_still_runs_regions() {
        let pool = ThreadPool::new_pinned(2);
        let count = AtomicUsize::new(0);
        pool.parallel_for(0..10_000, Schedule::Dynamic(64), |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 10_000);
    }

    #[test]
    fn concurrent_runs_from_many_threads_serialize() {
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        let count = std::sync::Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let pool = std::sync::Arc::clone(&pool);
            let count = std::sync::Arc::clone(&count);
            joins.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    pool.run(|_| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(count.load(Ordering::Relaxed), 4 * 25 * 2);
    }
}
