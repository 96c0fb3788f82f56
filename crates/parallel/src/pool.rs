//! A thread pool of persistent workers executing *parallel regions*.
//!
//! A region is a closure invoked once for every worker id (OpenMP's
//! `#pragma omp parallel`); the caller of a region runs worker id 0, as
//! OpenMP's master thread does. Data-parallel loops ([`ThreadPool::parallel_for`])
//! and reductions are built on top by handing each worker id a slice of
//! the iteration space according to a [`Schedule`]. A loop that writes a
//! caller's buffer goes through [`try_for_each_chunk_mut`], which hands
//! each chunk an exclusive `&mut` window of it: the one place the
//! workspace splits a buffer for disjoint parallel writes.
//!
//! Workers park on a condition variable between regions, so an idle pool
//! costs nothing. A region's shares 1.. go to whichever threads claim them
//! first: each woken worker claims the next unclaimed id, and the caller of
//! [`ThreadPool::run`], once share 0 is done, runs every share no worker
//! has claimed yet, then blocks until the claimed ones finish — this is the
//! guarantee that makes the internal lifetime erasure sound (the region
//! closure may borrow the caller's stack). A region therefore never waits
//! for a worker that has not started: on a host whose cores are all busy,
//! a worker the scheduler has not run yet would otherwise hold the join
//! for a time slice. A region wakes one thread fewer than it runs on, so a
//! pool as wide as the host's cores never has two woken workers queue on
//! one core behind a parked caller. Each id still runs on exactly one
//! thread per region, which is all that per-worker scratch needs.
//!
//! **A busy pool runs the region on its caller.** The workers serve one
//! region at a time. A region that finds them taken by another thread's
//! region does not wait for them: its caller runs every worker id's share
//! in turn, with the same ids, chunk numbering and per-share panic capture
//! ([`ThreadPool::region_counts`] counts these). A lone request gets the
//! whole pool, and two concurrent requests never queue behind each other.
//! This is sound because no region closure waits on a sibling share: every
//! dynamic loop lets one share drain the whole iteration space, and the
//! async engine drains every shard from any one share. A closure that
//! blocked on another worker id would deadlock here.
//!
//! Panics are *captured, not fatal*: workers run region closures under
//! `catch_unwind`, the fallible loops additionally catch per chunk so a
//! panicking chunk drains the rest of the iteration space, and the first
//! panic surfaces to the caller as [`ExecError::WorkerPanic`] (or a caller
//! panic through the infallible wrappers). The pool itself stays usable
//! afterwards.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use crate::exec::{
    panic_payload_string, BudgetReason, ChunkAction, ChunkHooks, ExecError, Progress,
};
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
    /// Shares 1.. of the current region not yet finished.
    remaining: usize,
    /// The lowest share id of the current region no thread has claimed.
    next_share: usize,
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
    /// Held by the region that has the workers. A region that cannot take
    /// it at once runs on its caller (module docs), so regions never queue.
    region_guard: Mutex<()>,
    /// Regions that ran on the workers.
    pooled: AtomicU64,
    /// Regions that found the workers busy and ran on their caller.
    on_caller: AtomicU64,
}

/// How a pool's regions have run since it was built
/// ([`ThreadPool::region_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionCounts {
    /// Regions that ran on the pool's workers.
    pub pooled: u64,
    /// Regions that found the workers busy with another thread's region
    /// and ran every share on their caller instead of waiting.
    pub on_caller: u64,
}

thread_local! {
    /// True while the current thread is executing inside a region of some
    /// pool. Used to reject (unsupported) nested regions early.
    static IN_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl ThreadPool {
    /// Creates a pool with `num_threads` workers (minimum 1): the caller
    /// of each region and `num_threads - 1` persistent threads.
    pub fn new(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(RegionSlot {
                epoch: 0,
                job: None,
                remaining: 0,
                next_share: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..num_threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("essentials-worker-{tid}"))
                    .spawn(move || worker_loop(&shared, num_threads))
                    .expect("failed to spawn pool worker") // unwrap-ok: startup resource failure, no run to fail
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            num_threads,
            region_guard: Mutex::new(()),
            pooled: AtomicU64::new(0),
            on_caller: AtomicU64::new(0),
        }
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

    /// How this pool's regions have run so far: on the workers, or on
    /// their caller because another thread's region held the workers.
    pub fn region_counts(&self) -> RegionCounts {
        RegionCounts {
            pooled: self.pooled.load(Ordering::Relaxed),
            on_caller: self.on_caller.load(Ordering::Relaxed),
        }
    }

    /// Executes `f(worker_id)` once for every worker id, blocking until all
    /// shares finish. This is the primitive every parallel operator in the
    /// framework lowers to. Which thread runs an id is decided per region
    /// (module docs): the calling thread runs id 0 and every id no worker
    /// has claimed, and all of them when another thread's region holds the
    /// workers, so `f` must never wait for a sibling share.
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
    /// after every share has finished. The pool remains usable.
    ///
    /// The region takes the workers if they are free. If another thread's
    /// region holds them, it does not queue: the caller runs the shares of
    /// worker ids `0..num_threads` in turn, each under its own
    /// `catch_unwind`, and reports the first panic with its worker id.
    pub fn try_run<F>(&self, f: F) -> Result<(), ExecError>
    where
        F: Fn(usize) + Sync,
    {
        assert!(
            !IN_REGION.with(|c| c.get()),
            "nested parallel regions are not supported"
        );
        let Some(_workers) = self.region_guard.try_lock() else {
            self.on_caller.fetch_add(1, Ordering::Relaxed);
            let mut first = None;
            for tid in 0..self.num_threads {
                if let Some(payload) = run_share(&f, tid) {
                    first.get_or_insert((payload, tid));
                }
            }
            return match first {
                Some((payload, chunk)) => Err(ExecError::WorkerPanic { payload, chunk }),
                None => Ok(()),
            };
        };
        self.pooled.fetch_add(1, Ordering::Relaxed);

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
        slot.remaining = self.num_threads - 1;
        slot.next_share = 1;
        self.shared.work_cv.notify_all();
        drop(slot);
        let panic = run_share(job, 0);
        let mut slot = self.shared.slot.lock();
        if let Some(payload) = panic {
            slot.panic.get_or_insert((payload, 0));
        }
        // Shares no worker has started run here rather than wait for one.
        while slot.next_share < self.num_threads {
            let tid = slot.next_share;
            slot.next_share += 1;
            drop(slot);
            let panic = run_share(job, tid);
            slot = self.shared.slot.lock();
            if let Some(payload) = panic {
                slot.panic.get_or_insert((payload, tid));
            }
            slot.remaining -= 1;
        }
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
    /// the range is too small to be worth distributing
    /// ([`Schedule::runs_inline`], one unit of work per index). A panic in `f` is
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
    /// uses the worker id. Sequential fallbacks chunk by the dynamic grain
    /// (one chunk for `Static`) so `Dynamic` fault coordinates stay
    /// meaningful at every thread count.
    ///
    /// Each index counts as one unit of work; a loop whose indices stand
    /// for more (64-vertex words, edge chunks) states it through
    /// [`ThreadPool::try_parallel_for_work`].
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
        let work = range.end.saturating_sub(range.start);
        self.try_parallel_for_work(range, schedule, work, hooks, f)
    }

    /// Runs `f(worker, chunk)` once for every chunk id in `0..nchunks`, the
    /// chunks together holding `work` units: [`ThreadPool::try_parallel_for_work`]
    /// under `Schedule::Dynamic(1)`, for loops whose items are already
    /// coarse chunks of work (a bin flush, a source-window pass, a rank's
    /// superstep).
    pub fn try_for_each_chunk<F>(
        &self,
        nchunks: usize,
        work: usize,
        hooks: ChunkHooks<'_>,
        f: F,
    ) -> Result<(), ExecError>
    where
        F: Fn(usize, usize) + Sync,
    {
        self.try_parallel_for_work(0..nchunks, Schedule::Dynamic(1), work, hooks, f)
    }

    /// [`ThreadPool::try_parallel_for_with`] for a loop whose `range`
    /// stands for `work` units (vertex slots or edges) as the caller states
    /// them: it runs on the calling thread when [`Schedule::runs_inline`]
    /// says the work cannot pay for a region, on the pool otherwise. The
    /// chunk numbering is the same either way.
    pub fn try_parallel_for_work<F>(
        &self,
        range: Range<usize>,
        schedule: Schedule,
        work: usize,
        hooks: ChunkHooks<'_>,
        f: F,
    ) -> Result<(), ExecError>
    where
        F: Fn(usize, usize) + Sync,
    {
        let len = range.end.saturating_sub(range.start);
        if self.num_threads == 1 || schedule.runs_inline(len, work) {
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
                // Segmented claiming: each worker owns an even, contiguous
                // slice of the *chunk id space*, drains it through a
                // private cursor, then steals from other segments. Chunk
                // ids keep the exact `(lo - start) / grain` numbering of
                // the shared-counter schedule, so fault-plan coordinates
                // and the determinism argument are untouched — only the
                // claim order (which the BSP contract already leaves free)
                // changes. It applies as soon as every worker has a chunk
                // of its own, so a loop over a few coarse chunks (bin
                // flushes) runs each chunk on the same worker, with its
                // cache, call after call.
                if (2..=MAX_SEGMENTS).contains(&n) && nchunks >= n {
                    let seg = nchunks.div_ceil(n);
                    let bounds: [usize; MAX_SEGMENTS + 1] =
                        std::array::from_fn(|w| (w * seg).min(nchunks));
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
        }
        outcome.into_result()
    }

    /// Parallel reduction: maps every index through `map`, combining results
    /// with `combine` starting from `identity` (which must be a true
    /// identity for `combine`, and `combine` associative).
    ///
    /// `range` is cut into chunks of the schedule's grain (`Static`: one
    /// chunk per worker); each chunk folds into its own partial slot, and
    /// the partials are combined in chunk order after the join. The
    /// association depends only on the range and the schedule, so a
    /// combine that is associative but not commutative gives one result at
    /// every pool width.
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
        let len = range.len();
        let grain = match schedule {
            Schedule::Dynamic(g) => g.max(1),
            Schedule::Static => len.div_ceil(self.num_threads).max(1),
        };
        if self.num_threads == 1 || Schedule::Dynamic(grain).runs_inline(len, len) {
            return range.fold(identity, |acc, i| combine(acc, map(i)));
        }
        let mut partials = vec![identity.clone(); len.div_ceil(grain)];
        try_for_each_chunk_mut(
            Some(self),
            &mut partials,
            ChunkSplit::Len(1),
            len,
            ChunkHooks::none(),
            |c, slot| {
                let lo = range.start + c * grain;
                let chunk = lo..(lo + grain).min(range.end);
                let acc = identity.clone(); // alloc-ok: heap only when T owns heap
                slot[0] = chunk.fold(acc, |acc, i| combine(acc, map(i)));
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        partials.into_iter().fold(identity, combine)
    }
}

/// How [`try_for_each_chunk_mut`] cuts its buffer into chunk windows.
/// Windows are contiguous, in chunk order, and never overlap.
#[derive(Debug, Clone, Copy)]
pub enum ChunkSplit<'a> {
    /// Chunk `c` owns `[c·len, (c+1)·len)`; the last window ends at the
    /// buffer's end. A length of 0 counts as 1.
    Len(usize),
    /// Chunk `c` owns `[bounds[c], bounds[c+1])`, so the table holds one
    /// more entry than there are chunks. It must never decrease and must
    /// end within the buffer.
    Bounds(&'a [usize]),
}

impl ChunkSplit<'_> {
    /// The number of chunks over a buffer of `len` items, after checking a
    /// boundary table against it.
    fn chunks(&self, len: usize) -> Result<usize, ExecError> {
        match *self {
            ChunkSplit::Len(l) => Ok(len.div_ceil(l.max(1))),
            ChunkSplit::Bounds(b) => {
                if b.windows(2).any(|w| w[0] > w[1]) || b.last().is_some_and(|&end| end > len) {
                    return Err(ExecError::InvalidInput {
                        detail: format!("chunk bounds must not decrease or pass {len}"),
                    });
                }
                Ok(b.len().saturating_sub(1))
            }
        }
    }

    /// Chunk `c`'s window over a buffer of `len` items.
    #[inline]
    fn window(&self, c: usize, len: usize) -> Range<usize> {
        match *self {
            ChunkSplit::Len(l) => {
                let l = l.max(1);
                c * l..((c + 1) * l).min(len)
            }
            ChunkSplit::Bounds(b) => b[c]..b[c + 1],
        }
    }
}

/// The buffer of a [`try_for_each_chunk_mut`] call, shared with the chunks
/// that each carve their own window out of it.
struct SharedMut<T>(*mut T);

impl<T> SharedMut<T> {
    /// A method, not a field read, so closures capture the whole wrapper
    /// (and its `Sync`) rather than the bare pointer.
    #[inline]
    fn ptr(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the pointer is only turned into the disjoint chunk windows of
// `try_for_each_chunk_mut` (see the SAFETY note there); handing a window
// to another thread moves `&mut [T]` access, which `T: Send` permits.
unsafe impl<T: Send> Sync for SharedMut<T> {}

/// The data-parallel loop that writes a caller's buffer: runs `f(c,
/// window)` once for every chunk `c`, where `window` is chunk `c`'s
/// exclusive `&mut` sub-slice of `data` as `split` cuts it. Per-chunk
/// results go the same way: a slot table cut by `ChunkSplit::Len(1)`.
///
/// With a pool this is [`ThreadPool::try_for_each_chunk`] over the chunk
/// ids, the chunks holding `work` units: one dispatch rule
/// ([`Schedule::runs_inline`]), one chunk numbering, the same hooks,
/// per-chunk panic capture and busy-pool path as every other loop. With
/// `None` the chunks run in order on the calling thread, which is what a
/// sequential policy runs, under the same hooks and capture.
///
/// A `Bounds` table that decreases or ends past `data` is rejected as
/// [`ExecError::InvalidInput`] before any chunk runs.
pub fn try_for_each_chunk_mut<T, F>(
    pool: Option<&ThreadPool>,
    data: &mut [T],
    split: ChunkSplit<'_>,
    work: usize,
    hooks: ChunkHooks<'_>,
    f: F,
) -> Result<(), ExecError>
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    let nchunks = split.chunks(len)?;
    let base = SharedMut(data.as_mut_ptr());
    let body = |_: usize, c: usize| {
        let w = split.window(c, len);
        // SAFETY: `chunks` checked that every window lies in `data` (a
        // `Len` window is clamped to `len`; a `Bounds` table never
        // decreases and ends within `len`), and consecutive windows of a
        // non-decreasing table never overlap. Both loops below run each
        // chunk id in `0..nchunks` at most once and return only after
        // every chunk has finished, while `data` stays mutably borrowed
        // for the whole call — so each window is the only access to its
        // items while it lives.
        let window = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(w.start), w.len()) };
        f(c, window);
    };
    match pool {
        Some(pool) => pool.try_for_each_chunk(nchunks, work, hooks, body),
        None => try_sequential_for_with(0..nchunks, Schedule::Dynamic(1), hooks, body),
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
        Schedule::Dynamic(g) => g.max(1),
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

/// Runs worker `tid`'s share of a region and returns its panic payload, if
/// any. Capturing the panic lets `remaining` always reach zero: a worker
/// that unwound would never complete the region and deadlock the caller.
/// Region closures only touch state valid at every intermediate step
/// (atomics, mutexes, worker-owned slots), and the panic is reported to the
/// caller, never swallowed.
fn run_share(job: &(dyn Fn(usize) + Sync + '_), tid: usize) -> Option<String> {
    IN_REGION.with(|c| c.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| job(tid)));
    IN_REGION.with(|c| c.set(false));
    result.err().map(|payload| panic_payload_string(&*payload))
}

/// A worker's life: park until a region has a share nobody has claimed,
/// claim the lowest such id, run it, report.
fn worker_loop(shared: &Shared, shares: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, tid) = {
            let mut slot = shared.slot.lock();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen_epoch {
                    seen_epoch = slot.epoch;
                    if slot.next_share < shares {
                        let tid = slot.next_share;
                        slot.next_share += 1;
                        let job = slot.job.expect("epoch bumped without a job"); // unwrap-ok: protocol invariant
                        break (job, tid);
                    }
                }
                shared.work_cv.wait(&mut slot);
            }
        };
        let panic = run_share(job, tid);
        let mut slot = shared.slot.lock();
        if let Some(payload) = panic {
            slot.panic.get_or_insert((payload, tid));
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
        for schedule in [Schedule::Static, Schedule::Dynamic(1), Schedule::Dynamic(7)] {
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
    fn segmented_dynamic_covers_range() {
        let pool = ThreadPool::new(4);
        let n = 50_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..n, Schedule::Dynamic(64), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn segmented_dynamic_keeps_chunk_ids_stable() {
        // Fault coordinates name chunks by `(lo - start) / grain` on both
        // dynamic claim paths: the segmented cursors (at least one chunk
        // per worker) and the shared counter (fewer chunks than workers),
        // and the calling-thread fallback agrees with both.
        let pool = ThreadPool::new(4);
        let inline = ThreadPool::new(1);
        // (range, grain, faulty chunk): 100 chunks, then 2 chunks on 4
        // workers; the offset start pins ids relative to `range.start`.
        for (range, grain, bad) in [(0..6400, 64, 5), (3000..7096, 2048, 1)] {
            for pool in [&pool, &inline] {
                let plan = crate::exec::FaultPlan::new().panic_at(0, bad as u64);
                let budget = crate::exec::RunBudget::unlimited();
                let hits: Vec<AtomicUsize> = (0..range.end).map(|_| AtomicUsize::new(0)).collect();
                let err = pool
                    .try_parallel_for_with(
                        range.clone(),
                        Schedule::Dynamic(grain),
                        budget.chunk_hooks(Some(&plan)),
                        |_, i| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        },
                    )
                    .unwrap_err();
                match &err {
                    ExecError::WorkerPanic { payload, chunk } => {
                        assert!(payload.contains("injected fault"), "payload: {payload}");
                        assert_eq!(*chunk, bad);
                    }
                    other => panic!("expected WorkerPanic, got {other:?}"),
                }
                // Every chunk except the injected one ran exactly once.
                for (i, h) in hits.iter().enumerate() {
                    let expected =
                        usize::from(range.contains(&i) && (i - range.start) / grain != bad);
                    assert_eq!(h.load(Ordering::Relaxed), expected, "index {i}");
                }
            }
        }
    }

    // The chunk loop's own tests run on a 1-wide pool or on the calling
    // thread, so they spawn no thread and Miri can check its one unsafe
    // split (`cargo miri test -p essentials-parallel --lib chunk_mut`).

    /// Runs the chunk loop over `len` unwritten slots; every chunk records
    /// its id and one more write in each slot of its window. Chunk 1
    /// panics when `fail` is set.
    fn chunk_mut_marks(
        pool: Option<&ThreadPool>,
        len: usize,
        split: ChunkSplit<'_>,
        fail: bool,
    ) -> (Vec<(usize, usize)>, Result<(), ExecError>) {
        let mut data = vec![(usize::MAX, 0usize); len];
        let r = try_for_each_chunk_mut(pool, &mut data, split, len, ChunkHooks::none(), |c, w| {
            assert!(!(fail && c == 1), "chunk {c} down");
            for slot in w.iter_mut() {
                *slot = (c, slot.1 + 1);
            }
        });
        (data, r)
    }

    #[test]
    fn chunk_mut_windows_tile_the_buffer_once() {
        let one = ThreadPool::new(1);
        for pool in [Some(&one), None] {
            for (len, l) in [(0, 4), (10, 4), (12, 4), (7, 0)] {
                let (got, r) = chunk_mut_marks(pool, len, ChunkSplit::Len(l), false);
                let want: Vec<_> = (0..len).map(|i| (i / l.max(1), 1)).collect();
                assert_eq!(
                    (got, r.is_ok()),
                    (want, true),
                    "len {len}, chunk length {l}"
                );
            }
            // Empty windows are chunks too, and a table may stop short of
            // the buffer's end.
            let (got, r) = chunk_mut_marks(pool, 7, ChunkSplit::Bounds(&[1, 3, 3, 5]), false);
            let x = (usize::MAX, 0);
            assert_eq!(got, [x, (0, 1), (0, 1), (2, 1), (2, 1), x, x]);
            assert!(r.is_ok());
        }
    }

    #[test]
    fn chunk_mut_rejects_bad_tables_and_reports_panics() {
        let one = ThreadPool::new(1);
        for pool in [Some(&one), None] {
            for bounds in [&[0, 4, 2, 6][..], &[0, 4, 9]] {
                let (got, r) = chunk_mut_marks(pool, 8, ChunkSplit::Bounds(bounds), false);
                assert!(matches!(r, Err(ExecError::InvalidInput { .. })), "{r:?}");
                assert!(got.iter().all(|s| s.1 == 0), "a chunk ran before the check");
            }
            let (got, r) = chunk_mut_marks(pool, 9, ChunkSplit::Len(3), true);
            match r {
                Err(ExecError::WorkerPanic { payload, chunk }) => {
                    assert!(payload.contains("chunk 1 down"), "payload: {payload}");
                    assert_eq!(chunk, 1);
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
            let writes: Vec<usize> = got.iter().map(|s| s.1).collect();
            assert_eq!(writes, [1, 1, 1, 0, 0, 0, 1, 1, 1]);
        }
    }

    /// A one-shot gate: `wait` blocks until some thread has called `open`.
    #[derive(Default)]
    struct Latch {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Latch {
        fn open(&self) {
            *self.open.lock() = true;
            self.cv.notify_all();
        }

        fn wait(&self) {
            let mut open = self.open.lock();
            while !*open {
                self.cv.wait(&mut open);
            }
        }
    }

    /// Runs `0..6400` in `Dynamic(64)` chunks with a fault planned at
    /// chunk `bad` and returns the error's chunk id and the indices that
    /// ran (each once).
    fn faulted_dynamic_loop(pool: &ThreadPool, bad: u64) -> (usize, Vec<usize>) {
        let plan = crate::exec::FaultPlan::new().panic_at(0, bad);
        let budget = crate::exec::RunBudget::unlimited();
        let hits: Vec<AtomicUsize> = (0..6400).map(|_| AtomicUsize::new(0)).collect();
        let err = pool
            .try_parallel_for_with(
                0..6400,
                Schedule::Dynamic(64),
                budget.chunk_hooks(Some(&plan)),
                |_, i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
            )
            .unwrap_err();
        let ExecError::WorkerPanic { chunk, .. } = err else {
            panic!("expected WorkerPanic, got {err:?}");
        };
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
        let ran = (0..6400)
            .filter(|&i| hits[i].load(Ordering::Relaxed) == 1)
            .collect();
        (chunk, ran)
    }

    #[test]
    fn a_busy_pool_runs_the_region_on_its_caller() {
        let pool = ThreadPool::new(2);
        let (held, release) = (Latch::default(), Latch::default());
        std::thread::scope(|s| {
            // One thread takes the workers and parks inside its region.
            let holder = s.spawn(|| {
                pool.run(|tid| {
                    if tid == 0 {
                        held.open();
                        release.wait();
                    }
                })
            });
            held.wait();
            let me = std::thread::current().id();
            let before = pool.region_counts();

            // Every worker id's share runs once, all on this thread.
            let visits = [0u8; 2].map(|_| AtomicUsize::new(0));
            let elsewhere = AtomicUsize::new(0);
            pool.try_run(|tid| {
                visits[tid].fetch_add(1, Ordering::Relaxed);
                if std::thread::current().id() != me {
                    elsewhere.fetch_add(1, Ordering::Relaxed);
                }
            })
            .unwrap();
            assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
            assert_eq!(elsewhere.load(Ordering::Relaxed), 0);

            // A panicking share is reported with its worker id.
            let err = pool
                .try_run(|tid| {
                    if tid == 1 {
                        panic!("share {tid} down");
                    }
                })
                .unwrap_err();
            match &err {
                ExecError::WorkerPanic { payload, chunk } => {
                    assert!(payload.contains("share 1 down"), "payload: {payload}");
                    assert_eq!(*chunk, 1);
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }

            // A loop keeps its chunk numbering; all three regions ran here.
            let busy = faulted_dynamic_loop(&pool, 5);
            assert_eq!(busy.0, 5);
            assert_eq!(
                pool.region_counts(),
                RegionCounts {
                    pooled: before.pooled,
                    on_caller: before.on_caller + 3,
                }
            );

            release.open();
            holder.join().unwrap();
            // The same loop on the free pool: the same chunk fails and the
            // same indices run.
            let pooled = faulted_dynamic_loop(&pool, 5);
            assert_eq!(pooled, busy);
            assert_eq!(pool.region_counts().pooled, before.pooled + 1);
        });
    }

    #[test]
    fn concurrent_runs_from_many_threads_run_every_share_once() {
        // Runs that find the workers busy run on their caller instead of
        // queueing; either way each run visits both worker ids once.
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
