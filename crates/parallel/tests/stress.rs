//! Soak/stress tests for the threading substrate: rapid region churn,
//! oversubscription, deep async cascades, and cross-thread pool sharing.
//! These are the failure modes a work-sharing runtime actually exhibits
//! (lost wakeups, double-dispatch, premature quiescence).

use essentials_parallel::{run_async, Schedule, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Scales a workload by `ESSENTIALS_STRESS_SCALE` (default 1). The
/// sanitizer CI job raises it so instrumented runs still soak the pool;
/// local runs stay fast.
fn scaled(n: usize) -> usize {
    match std::env::var("ESSENTIALS_STRESS_SCALE") {
        Ok(s) => n * s.parse::<usize>().unwrap_or(1).max(1),
        Err(_) => n,
    }
}

#[test]
fn thousands_of_tiny_regions_do_not_lose_wakeups() {
    let pool = ThreadPool::new(4);
    let count = AtomicUsize::new(0);
    let regions = scaled(5_000);
    for _ in 0..regions {
        pool.run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(count.into_inner(), regions * 4);
}

#[test]
fn oversubscribed_pool_still_completes() {
    // Far more workers than cores: forces heavy time-slicing through every
    // code path (region wake-ups and joins, segmented claims and steals).
    let pool = ThreadPool::new(16);
    let count = AtomicUsize::new(0);
    for _ in 0..25 {
        pool.run(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert_eq!(count.load(Ordering::Relaxed), 16 * 25);
    let n = 100_000;
    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    pool.parallel_for(0..n, Schedule::Dynamic(64), |i| {
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn async_cascade_of_depth_ten_thousand() {
    // A strictly sequential dependency chain through the async engine: each
    // item pushes exactly one successor. Tests that quiescence detection
    // never fires early even when the queue is nearly always empty.
    let pool = ThreadPool::new(4);
    let max_seen = AtomicUsize::new(0);
    let depth = scaled(10_000);
    let stats = run_async(&pool, vec![0usize], |item, pusher| {
        max_seen.fetch_max(item, Ordering::Relaxed);
        if item < depth {
            pusher.push(item + 1);
        }
    });
    assert_eq!(stats.processed, depth + 1);
    assert_eq!(max_seen.into_inner(), depth);
}

#[test]
fn wide_async_burst() {
    // One seed fans out to 50k items in one handler call.
    let pool = ThreadPool::new(4);
    let width = scaled(50_000);
    let stats = run_async(&pool, vec![usize::MAX], |item, pusher| {
        if item == usize::MAX {
            for i in 0..width {
                pusher.push(i);
            }
        }
    });
    assert_eq!(stats.processed, width + 1);
}

#[test]
fn pool_shared_across_threads_with_interleaved_regions_and_reductions() {
    let pool = Arc::new(ThreadPool::new(3));
    let mut handles = Vec::new();
    for t in 0..6 {
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            let mut totals = Vec::new();
            for round in 0..20 {
                let n = 1000 + t * 37 + round;
                let sum = pool.parallel_reduce(
                    0..n,
                    Schedule::Dynamic(64),
                    0u64,
                    |i| i as u64,
                    |a, b| a + b,
                );
                assert_eq!(sum, (n as u64 * (n as u64 - 1)) / 2);
                totals.push(sum);
            }
            totals.len()
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 20);
    }
}

#[test]
fn parallel_for_with_huge_grain_and_tiny_range() {
    let pool = ThreadPool::new(4);
    let count = AtomicUsize::new(0);
    pool.parallel_for(0..3, Schedule::Dynamic(1_000_000), |_| {
        count.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(count.into_inner(), 3);
}
