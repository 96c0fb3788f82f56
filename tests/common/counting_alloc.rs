//! The allocation-counting instrument shared by the test binaries that
//! audit the steady-state zero-allocation contract (including this file
//! with `#[path] mod` installs it as that binary's `#[global_allocator]`).
//!
//! libtest runs a binary's tests on parallel threads, and its own main
//! thread allocates whenever a test finishes, so a process-global "count
//! everything while armed" flag charges every measurement with its
//! siblings' allocations. Counting here is **scoped to threads**: each
//! measurement owns a counter, and only the measuring thread plus the
//! workers of the pool it names are charged to it. Any number of
//! measurements run concurrently without seeing each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use essentials::prelude::ThreadPool;

pub struct CountingAlloc;

thread_local! {
    /// The measurement this thread's allocations are charged to, if any.
    /// `const`-initialised and free of destructors, so reading it from
    /// inside the allocator neither allocates nor outlives the thread.
    static CHARGE_TO: Cell<Option<&'static AtomicUsize>> = const { Cell::new(None) };
}

fn charge() {
    // `try_with`: a thread tearing down its TLS simply is not counted.
    let _ = CHARGE_TO.try_with(|c| {
        if let Some(counter) = c.get() {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    });
}

// SAFETY: defers every allocator duty to `System` verbatim; the only
// addition is a Relaxed counter bump, which cannot violate GlobalAlloc's
// contract.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: `System` upholds the layout contract; counting is side-effect-free.
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        charge();
        // SAFETY: forwarding the caller's layout unchanged to System.
        unsafe { System.alloc(l) }
    }

    // SAFETY: `System` upholds the layout contract; counting is side-effect-free.
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        charge();
        // SAFETY: forwarding the caller's pointer and layouts unchanged.
        unsafe { System.realloc(p, l, new_size) }
    }

    // SAFETY: `System` upholds the layout contract.
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: forwarding the caller's pointer and layout unchanged.
        unsafe { System.dealloc(p, l) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `iteration` once and returns how many times the calling thread and
/// the workers of `pool` — the pool `iteration` runs its parallel regions
/// on — hit the allocator meanwhile.
///
/// Workers are armed and disarmed by a region on the pool itself
/// (`ThreadPool::run` executes once on every worker); the region barriers
/// inside `iteration` give the happens-before edge for worker-side
/// increments, so Relaxed suffices.
pub fn count_allocs(pool: &ThreadPool, iteration: impl FnOnce()) -> usize {
    // Leaked so armed threads can hold a plain `&'static`: one word per
    // measurement, a few dozen per test run.
    let counter: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(0)));
    pool.run(|_| CHARGE_TO.set(Some(counter)));
    CHARGE_TO.set(Some(counter));
    iteration();
    CHARGE_TO.set(None);
    pool.run(|_| CHARGE_TO.set(None));
    counter.load(Ordering::Relaxed)
}
