//! Property-based tests for the threading substrate: exactly-once
//! iteration, chunk-window writes, reduction correctness, async-engine
//! conservation, across arbitrary range lengths, grain sizes, and thread
//! counts.

use essentials_parallel::schedule::MIN_REGION_WORK;
use essentials_parallel::{
    run_async, run_async_seq, try_for_each_chunk_mut, ChunkHooks, ChunkSplit, ExecError,
    RegionCounts, Schedule, ThreadPool,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;

/// Runs the chunk loop over `len` slots cut by `split` on a pool of
/// `threads`; every chunk records its id and one more write in each slot
/// of its window. Unwritten slots read `(usize::MAX, 0)`.
fn chunk_marks(threads: usize, len: usize, split: ChunkSplit<'_>) -> Vec<(usize, u32)> {
    let pool = ThreadPool::new(threads);
    let mut data = vec![(usize::MAX, 0u32); len];
    try_for_each_chunk_mut(
        Some(&pool),
        &mut data,
        split,
        len,
        ChunkHooks::none(),
        |c, w| {
            for slot in w.iter_mut() {
                *slot = (c, slot.1 + 1);
            }
        },
    )
    .unwrap();
    data
}

/// Affine maps `x ↦ a·x + b` (wrapping), composed left to right: an
/// associative combine that is not commutative.
fn compose(f: (u64, u64), g: (u64, u64)) -> (u64, u64) {
    (
        g.0.wrapping_mul(f.0),
        g.0.wrapping_mul(f.1).wrapping_add(g.1),
    )
}

fn affine(i: usize) -> (u64, u64) {
    let i = i as u64;
    (
        i.wrapping_mul(2).wrapping_add(3),
        i.wrapping_mul(i).wrapping_add(7),
    )
}

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static),
        (1usize..2000).prop_map(Schedule::Dynamic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_for_visits_each_index_exactly_once(
        len in 0usize..20_000,
        threads in 1usize..6,
        schedule in arb_schedule(),
    ) {
        let pool = ThreadPool::new(threads);
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..len, schedule, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_with_reports_valid_worker_ids(
        len in 1usize..10_000,
        threads in 1usize..6,
        schedule in arb_schedule(),
    ) {
        let pool = ThreadPool::new(threads);
        let bad = AtomicUsize::new(0);
        pool.parallel_for_with(0..len, schedule, |tid, _i| {
            if tid >= threads {
                bad.fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert_eq!(bad.into_inner(), 0);
    }

    #[test]
    fn parallel_reduce_equals_sequential_fold(
        values in prop::collection::vec(0u64..1000, 0..5000),
        threads in 1usize..5,
        schedule in arb_schedule(),
    ) {
        let pool = ThreadPool::new(threads);
        let expected: u64 = values.iter().sum();
        let got = pool.parallel_reduce(
            0..values.len(),
            schedule,
            0u64,
            |i| values[i],
            |a, b| a + b,
        );
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn chunk_loop_writes_every_slot_once_with_width_independent_ids(
        len in 0usize..20_000,
        chunk in 1usize..3000,
    ) {
        let want: Vec<(usize, u32)> = (0..len).map(|i| (i / chunk, 1)).collect();
        for threads in [1, 2, 8] {
            prop_assert_eq!(&chunk_marks(threads, len, ChunkSplit::Len(chunk)), &want);
        }
    }

    #[test]
    fn chunk_loop_bounds_windows_are_written_once(
        cuts in prop::collection::vec(0usize..20_000, 0..40),
    ) {
        let mut cuts = cuts;
        cuts.sort_unstable();
        let len = 20_000;
        let mut want = vec![(usize::MAX, 0u32); len];
        for (c, w) in cuts.windows(2).enumerate() {
            for slot in &mut want[w[0]..w[1]] {
                *slot = (c, 1);
            }
        }
        for threads in [1, 2, 8] {
            prop_assert_eq!(&chunk_marks(threads, len, ChunkSplit::Bounds(&cuts)), &want);
        }
    }

    #[test]
    fn parallel_reduce_keeps_a_non_commutative_order(
        len in 0usize..20_000,
        schedule in arb_schedule(),
    ) {
        // The fold order is the range order, so every width agrees with
        // the sequential fold exactly.
        let want = (0..len).map(affine).fold((1, 0), compose);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let got = pool.parallel_reduce(0..len, schedule, (1, 0), affine, compose);
            prop_assert_eq!(got, want, "threads {}", threads);
        }
    }

    #[test]
    fn async_engine_conserves_items(
        seeds in prop::collection::vec(0usize..64, 0..64),
        threads in 1usize..5,
        fanout in 0usize..3,
    ) {
        // Every item < 64 pushes `fanout` children in [64, 128); children
        // push nothing. processed must equal seeds + pushes exactly.
        let pool = ThreadPool::new(threads);
        let stats = run_async(&pool, seeds.clone(), |item, pusher| {
            if item < 64 {
                for k in 0..fanout {
                    pusher.push(64 + (item + k) % 64);
                }
            }
        });
        prop_assert_eq!(stats.processed, seeds.len() + stats.pushes);
        prop_assert_eq!(stats.pushes, seeds.len() * fanout);
        // And the sequential engine agrees on the totals.
        let seq = run_async_seq(seeds.clone(), |item, pusher| {
            if item < 64 {
                for k in 0..fanout {
                    pusher.push(64 + (item + k) % 64);
                }
            }
        });
        prop_assert_eq!(seq.processed, stats.processed);
    }

    #[test]
    fn atomic_f32_min_converges_to_global_min(
        values in prop::collection::vec(0u32..1_000_000, 1..2000),
        threads in 1usize..5,
    ) {
        use essentials_parallel::atomics::AtomicF32;
        let pool = ThreadPool::new(threads);
        let a = AtomicF32::new(f32::INFINITY);
        pool.parallel_for(0..values.len(), Schedule::Dynamic(64), |i| {
            a.fetch_min(values[i] as f32, Ordering::AcqRel);
        });
        let expected = values.iter().copied().min().unwrap() as f32;
        prop_assert_eq!(a.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn bitset_counts_distinct_sets(
        indices in prop::collection::vec(0usize..512, 0..2000),
        threads in 1usize..5,
    ) {
        use essentials_parallel::atomics::AtomicBitset;
        let pool = ThreadPool::new(threads);
        let bits = AtomicBitset::new(512);
        let wins = AtomicUsize::new(0);
        pool.parallel_for(0..indices.len(), Schedule::Dynamic(32), |i| {
            if bits.set(indices[i]) {
                wins.fetch_add(1, Ordering::Relaxed);
            }
        });
        let mut distinct = indices.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(wins.into_inner(), distinct.len());
        prop_assert_eq!(bits.count_ones(), distinct.len());
        prop_assert_eq!(bits.iter_ones().collect::<Vec<_>>(), distinct);
    }

    #[test]
    fn for_each_set_matches_iter_ones_on_random_bitmaps(
        // Deliberately not a multiple of 64 most of the time: the tail word
        // must decode exactly like full words.
        len in 1usize..700,
        seed_bits in prop::collection::vec(0usize..700, 0..700),
    ) {
        use essentials_parallel::atomics::AtomicBitset;
        let bits = AtomicBitset::new(len);
        for &b in &seed_bits {
            if b < len {
                bits.set(b);
            }
        }
        let expected: Vec<usize> = bits.iter_ones().collect();
        let mut tight = Vec::new();
        bits.for_each_set(|i| tight.push(i));
        prop_assert_eq!(&tight, &expected);
        // The chunked word-range form covers the same set when the ranges
        // tile the words (parallel iteration decomposes this way).
        let words = bits.num_words();
        let mut chunked = Vec::new();
        let mut wi = 0;
        while wi < words {
            let hi = (wi + 3).min(words);
            bits.for_each_set_in_words(wi, hi, &mut |i| chunked.push(i));
            wi = hi;
        }
        prop_assert_eq!(&chunked, &expected);
        prop_assert_eq!(expected.len(), bits.count_ones());
    }

    #[test]
    fn for_each_set_extremes_empty_and_full(len in 1usize..700) {
        use essentials_parallel::atomics::AtomicBitset;
        let bits = AtomicBitset::new(len);
        let mut seen = 0usize;
        bits.for_each_set(|_| seen += 1);
        prop_assert_eq!(seen, 0);
        bits.set_all();
        let mut got = Vec::new();
        bits.for_each_set(|i| got.push(i));
        prop_assert_eq!(got, (0..len).collect::<Vec<_>>());
    }

    #[test]
    fn union_and_and_not_match_set_algebra(
        len in 1usize..400,
        a_bits in prop::collection::vec(0usize..400, 0..400),
        b_bits in prop::collection::vec(0usize..400, 0..400),
    ) {
        use essentials_parallel::atomics::AtomicBitset;
        use std::collections::BTreeSet;
        let a = AtomicBitset::new(len);
        let b = AtomicBitset::new(len);
        let sa: BTreeSet<usize> = a_bits.iter().copied().filter(|&x| x < len).collect();
        let sb: BTreeSet<usize> = b_bits.iter().copied().filter(|&x| x < len).collect();
        for &x in &sa { a.set(x); }
        for &x in &sb { b.set(x); }
        let added = a.union_with(&b);
        prop_assert_eq!(added, sb.difference(&sa).count());
        let union: Vec<usize> = sa.union(&sb).copied().collect();
        prop_assert_eq!(a.iter_ones().collect::<Vec<_>>(), union);
        let removed = a.and_not(&b);
        prop_assert_eq!(removed, sb.len());
        let diff: Vec<usize> = sa.difference(&sb).copied().collect();
        prop_assert_eq!(a.iter_ones().collect::<Vec<_>>(), diff);
    }
}

#[test]
fn affine_compose_is_not_commutative() {
    let (f, g) = (affine(1), affine(2));
    assert_ne!(compose(f, g), compose(g, f));
}

/// The thread that ran each of 64 chunks over `len` slots.
fn chunk_threads(pool: &ThreadPool, work: usize) -> Vec<ThreadId> {
    let me = std::thread::current().id();
    let mut data = vec![me; 64 * 32];
    try_for_each_chunk_mut(
        Some(pool),
        &mut data,
        ChunkSplit::Len(32),
        work,
        ChunkHooks::none(),
        |_, w| {
            w.fill(std::thread::current().id());
        },
    )
    .unwrap();
    data
}

#[test]
fn chunk_loop_below_min_region_work_runs_on_its_caller() {
    let pool = ThreadPool::new(2);
    let me = std::thread::current().id();
    let before = pool.region_counts();
    let threads = chunk_threads(&pool, MIN_REGION_WORK - 1);
    assert!(threads.iter().all(|&t| t == me));
    // No region was entered, pooled or on the caller.
    assert_eq!(pool.region_counts(), before);
}

#[test]
fn chunk_loop_on_a_busy_pool_runs_on_its_caller() {
    use std::sync::mpsc;
    let pool = ThreadPool::new(2);
    let (held_tx, held_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    // The region closure must be `Sync`; the receiver is not.
    let release_rx = std::sync::Mutex::new(release_rx);
    std::thread::scope(|s| {
        // Another thread takes the workers and parks inside its region.
        let holder = s.spawn(|| {
            pool.run(|tid| {
                if tid == 0 {
                    held_tx.send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
            })
        });
        held_rx.recv().unwrap();
        let before = pool.region_counts();
        let me = std::thread::current().id();
        let threads = chunk_threads(&pool, 1 << 20);
        assert!(threads.iter().all(|&t| t == me));
        assert_eq!(
            pool.region_counts(),
            RegionCounts {
                pooled: before.pooled,
                on_caller: before.on_caller + 1,
            }
        );
        release_tx.send(()).unwrap();
        holder.join().unwrap();
    });
}

#[test]
fn chunk_loop_reports_a_panicking_chunk_and_runs_the_rest() {
    for threads in [1, 2, 8] {
        let pool = ThreadPool::new(threads);
        let mut data = vec![0u8; 64 * 100];
        let err = try_for_each_chunk_mut(
            Some(&pool),
            &mut data,
            ChunkSplit::Len(64),
            1 << 20,
            ChunkHooks::none(),
            |c, w| {
                if c == 37 {
                    panic!("chunk {c} down");
                }
                w.fill(1);
            },
        )
        .unwrap_err();
        match &err {
            ExecError::WorkerPanic { payload, chunk } => {
                assert!(payload.contains("chunk 37 down"), "payload: {payload}");
                assert_eq!(*chunk, 37);
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, u8::from(i / 64 != 37), "slot {i}, threads {threads}");
        }
    }
}

#[test]
fn chunk_loop_rejects_a_non_monotone_table_before_any_chunk() {
    let pool = ThreadPool::new(2);
    let ran = AtomicUsize::new(0);
    let mut data = vec![0u32; 10_000];
    let bounds = [0, 5000, 4000, 10_000];
    let err = try_for_each_chunk_mut(
        Some(&pool),
        &mut data,
        ChunkSplit::Bounds(&bounds),
        1 << 20,
        ChunkHooks::none(),
        |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
        },
    )
    .unwrap_err();
    assert!(matches!(err, ExecError::InvalidInput { .. }), "{err:?}");
    assert_eq!(ran.load(Ordering::Relaxed), 0);
}
