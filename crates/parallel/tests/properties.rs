//! Property-based tests for the threading substrate: exactly-once
//! iteration, reduction correctness, async-engine conservation, across
//! arbitrary range lengths, grain sizes, and thread counts.

use essentials_parallel::{run_async, run_async_seq, Schedule, ThreadPool};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

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
