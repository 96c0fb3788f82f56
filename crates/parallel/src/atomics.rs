//! Atomic primitives the standard library lacks: float min/max/add and an
//! atomic bitset.
//!
//! Listing 4 of the paper relaxes SSSP distances with `atomic::min` on a
//! `float` array; dense frontiers are "a boolean array … stored in shared
//! memory" that many threads set concurrently. Both live here.
//!
//! Float CAS loops compare through `f32::from_bits`/`f64::from_bits` with
//! ordinary float comparison, so **NaN inputs are rejected by debug
//! assertion** (a NaN never compares less, which would silently drop
//! updates); graph weights are validated at build time.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// An `f32` updatable atomically. Layout-compatible with `f32` via `u32`
/// bit-casting.
#[derive(Debug)]
pub struct AtomicF32(AtomicU32);

impl AtomicF32 {
    /// Creates a new atomic float.
    #[inline]
    pub fn new(v: f32) -> Self {
        AtomicF32(AtomicU32::new(v.to_bits()))
    }

    /// Loads the current value.
    #[inline]
    pub fn load(&self, order: Ordering) -> f32 {
        f32::from_bits(self.0.load(order))
    }

    /// Stores `v`.
    #[inline]
    pub fn store(&self, v: f32, order: Ordering) {
        self.0.store(v.to_bits(), order)
    }

    /// Atomically sets `self = min(self, v)` and returns the **previous**
    /// value — exactly the paper's `atomic::min` contract ("atomically
    /// updates the distances vector at dst with the minimum …, then returns
    /// the old value").
    pub fn fetch_min(&self, v: f32, order: Ordering) -> f32 {
        debug_assert!(!v.is_nan(), "atomic float min is undefined for NaN");
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let cur_f = f32::from_bits(cur);
            if cur_f <= v {
                return cur_f;
            }
            match self
                .0
                .compare_exchange_weak(cur, v.to_bits(), order, Ordering::Relaxed)
            {
                Ok(_) => return cur_f,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomically sets `self = max(self, v)` and returns the previous value.
    pub fn fetch_max(&self, v: f32, order: Ordering) -> f32 {
        debug_assert!(!v.is_nan(), "atomic float max is undefined for NaN");
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let cur_f = f32::from_bits(cur);
            if cur_f >= v {
                return cur_f;
            }
            match self
                .0
                .compare_exchange_weak(cur, v.to_bits(), order, Ordering::Relaxed)
            {
                Ok(_) => return cur_f,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomically adds `v` and returns the previous value.
    pub fn fetch_add(&self, v: f32, order: Ordering) -> f32 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let cur_f = f32::from_bits(cur);
            let new = (cur_f + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, order, Ordering::Relaxed)
            {
                Ok(_) => return cur_f,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Consumes the atomic and returns the value.
    #[inline]
    pub fn into_inner(self) -> f32 {
        f32::from_bits(self.0.into_inner())
    }
}

/// An `f64` updatable atomically (used by PageRank/HITS accumulation).
#[derive(Debug)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// Creates a new atomic double.
    #[inline]
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Loads the current value.
    #[inline]
    pub fn load(&self, order: Ordering) -> f64 {
        f64::from_bits(self.0.load(order))
    }

    /// Stores `v`.
    #[inline]
    pub fn store(&self, v: f64, order: Ordering) {
        self.0.store(v.to_bits(), order)
    }

    /// Atomically adds `v` and returns the previous value.
    pub fn fetch_add(&self, v: f64, order: Ordering) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let cur_f = f64::from_bits(cur);
            let new = (cur_f + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, order, Ordering::Relaxed)
            {
                Ok(_) => return cur_f,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Atomically sets `self = min(self, v)` and returns the previous value.
    pub fn fetch_min(&self, v: f64, order: Ordering) -> f64 {
        debug_assert!(!v.is_nan(), "atomic float min is undefined for NaN");
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let cur_f = f64::from_bits(cur);
            if cur_f <= v {
                return cur_f;
            }
            match self
                .0
                .compare_exchange_weak(cur, v.to_bits(), order, Ordering::Relaxed)
            {
                Ok(_) => return cur_f,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Consumes the atomic and returns the value.
    #[inline]
    pub fn into_inner(self) -> f64 {
        f64::from_bits(self.0.into_inner())
    }
}

/// A fixed-capacity bitset with atomic set/test, the storage behind dense
/// (bitmap) frontiers and visited sets.
#[derive(Debug)]
pub struct AtomicBitset {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitset {
    /// Creates a bitset of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        let words = (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        AtomicBitset { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitset has zero bits of capacity.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Atomically sets bit `i`; returns `true` if this call changed it
    /// (i.e. the bit was previously clear). The claim-a-vertex primitive.
    #[inline]
    pub fn set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        self.words[i / 64].fetch_or(mask, Ordering::AcqRel) & mask == 0
    }

    /// Atomically clears bit `i`; returns `true` if this call changed it.
    #[inline]
    pub fn clear(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        self.words[i / 64].fetch_and(!mask, Ordering::AcqRel) & mask != 0
    }

    /// Tests bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64].load(Ordering::Acquire) & (1u64 << (i % 64)) != 0
    }

    /// Clears all bits (not atomic with respect to concurrent setters; call
    /// between phases).
    pub fn clear_all(&self) {
        for w in &self.words {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Iterates the indices of set bits in ascending order (snapshot
    /// semantics per word).
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, w)| {
            let mut bits = w.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Number of 64-bit words backing the bitset (the unit of the word
    /// kernels below and of chunked parallel iteration).
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Calls `f(i)` for every set bit `i`, word-at-a-time: all-zero words
    /// cost one load, and set bits are decoded with `trailing_zeros` in a
    /// tight loop with no iterator machinery between the word and the
    /// closure. The fast sequential scan of dense frontiers.
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        self.for_each_set_in_words(0, self.words.len(), &mut f);
    }

    /// [`Self::for_each_set`] restricted to words `[word_lo, word_hi)` —
    /// the building block for *parallel* dense-frontier iteration: workers
    /// take disjoint word ranges and decode their own chunks.
    #[inline]
    pub fn for_each_set_in_words(&self, word_lo: usize, word_hi: usize, f: &mut impl FnMut(usize)) {
        let hi = word_hi.min(self.words.len());
        let lo = word_lo.min(hi);
        // Slice iteration, not indexing: no per-word bounds check in the
        // scan loop.
        for (wi, word) in self.words[lo..hi].iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            let base = (lo + wi) * 64;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(base + b);
            }
        }
    }

    /// Sets every bit of `self` that is set in `other` (word-level `|=`);
    /// returns how many bits this newly set. Not atomic as a whole — call
    /// between phases, like [`Self::clear_all`]. Both bitsets must have the
    /// same length.
    pub fn union_with(&self, other: &AtomicBitset) -> usize {
        debug_assert_eq!(self.len, other.len);
        let mut added = 0usize;
        for (w, o) in self.words.iter().zip(&other.words) {
            let ob = o.load(Ordering::Relaxed);
            if ob != 0 {
                let old = w.fetch_or(ob, Ordering::Relaxed);
                added += (ob & !old).count_ones() as usize;
            }
        }
        added
    }

    /// Clears every bit of `self` that is set in `other` (word-level
    /// `&= !`); returns how many bits this cleared. The candidate-set
    /// maintenance kernel of masked pull: `unvisited.and_not(newly_visited)`
    /// retires settled destinations 64 at a time. Same phase discipline and
    /// length requirement as [`Self::union_with`].
    pub fn and_not(&self, other: &AtomicBitset) -> usize {
        debug_assert_eq!(self.len, other.len);
        let mut removed = 0usize;
        for (w, o) in self.words.iter().zip(&other.words) {
            let ob = o.load(Ordering::Relaxed);
            if ob != 0 {
                let old = w.fetch_and(!ob, Ordering::Relaxed);
                removed += (ob & old).count_ones() as usize;
            }
        }
        removed
    }

    /// Sets all `len` bits (tail bits of the last word stay clear, so
    /// `count_ones` and the scans never see ghost indices ≥ `len`).
    pub fn set_all(&self) {
        if self.len == 0 {
            return;
        }
        let (full, tail) = (self.len / 64, self.len % 64);
        for w in &self.words[..full] {
            w.store(u64::MAX, Ordering::Relaxed);
        }
        if tail != 0 {
            self.words[full].store((1u64 << tail) - 1, Ordering::Relaxed);
        }
    }

    /// Raw word access for bulk operations (counting, unions).
    pub fn words(&self) -> &[AtomicU64] {
        &self.words
    }
}

/// `T` on a 128-byte block of its own (a cache line and its prefetch
/// partner). A counter every worker bumps per edge must not share a line
/// with data the workers only read — a closure's captures or a `Vec` header
/// on the caller's stack — or each bump evicts that data from the other
/// cores; which neighbours a stack slot gets is up to the compiler.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// A relaxed `usize` counter for statistics (edges relaxed, messages sent…).
#[derive(Debug, Default)]
pub struct Counter(AtomicUsize);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter(AtomicUsize::new(0))
    }

    /// Adds `n` (relaxed; counters are advisory).
    #[inline]
    pub fn add(&self, n: usize) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// Reinterprets an exclusively borrowed `u64` slice as a shared slice of
/// atomics, so a pooled plain buffer can serve as shared state inside one
/// parallel region and go straight back to the pool afterwards — the
/// multi-source traversals' visited/frontier mask words live this way.
///
/// The `&mut` requirement is the soundness core: for the lifetime of the
/// returned reference the caller provably holds the *only* access path, so
/// retyping the memory as atomic cannot conflict with any non-atomic use.
#[inline]
pub fn as_atomic_u64(words: &mut [u64]) -> &[AtomicU64] {
    // SAFETY: `AtomicU64` has the same size and alignment as `u64`
    // (guaranteed by std), and the exclusive borrow means no other
    // reference — atomic or plain — aliases these words while the atomic
    // view is live.
    unsafe { &*(words as *mut [u64] as *const [AtomicU64]) }
}

/// The `u32` counterpart of [`as_atomic_u64`] — pooled level/label tables
/// retyped for one region of concurrent claim-writes.
#[inline]
pub fn as_atomic_u32(words: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: same layout guarantee (`AtomicU32` ⟷ `u32`) and the same
    // exclusive-borrow aliasing argument as `as_atomic_u64`.
    unsafe { &*(words as *mut [u32] as *const [AtomicU32]) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use crate::schedule::Schedule;

    #[test]
    fn f32_fetch_min_returns_old_and_keeps_min() {
        let a = AtomicF32::new(10.0);
        assert_eq!(a.fetch_min(3.0, Ordering::AcqRel), 10.0);
        assert_eq!(a.fetch_min(5.0, Ordering::AcqRel), 3.0);
        assert_eq!(a.load(Ordering::Relaxed), 3.0);
    }

    #[test]
    fn f32_fetch_min_handles_infinity_initial() {
        let a = AtomicF32::new(f32::INFINITY);
        assert_eq!(a.fetch_min(1.5, Ordering::AcqRel), f32::INFINITY);
        assert_eq!(a.load(Ordering::Relaxed), 1.5);
    }

    #[test]
    fn f32_fetch_max_and_add() {
        let a = AtomicF32::new(1.0);
        assert_eq!(a.fetch_max(4.0, Ordering::AcqRel), 1.0);
        assert_eq!(a.fetch_add(0.5, Ordering::AcqRel), 4.0);
        assert_eq!(a.load(Ordering::Relaxed), 4.5);
    }

    #[test]
    fn f64_concurrent_adds_sum_exactly_with_integral_values() {
        let pool = ThreadPool::new(4);
        let acc = AtomicF64::new(0.0);
        pool.parallel_for(0..10_000, Schedule::Dynamic(64), |_| {
            acc.fetch_add(1.0, Ordering::AcqRel);
        });
        assert_eq!(acc.load(Ordering::Relaxed), 10_000.0);
    }

    #[test]
    fn concurrent_min_converges_to_global_min() {
        let pool = ThreadPool::new(4);
        let a = AtomicF32::new(f32::MAX);
        pool.parallel_for(1..5_000, Schedule::Dynamic(16), |i| {
            a.fetch_min(i as f32, Ordering::AcqRel);
        });
        assert_eq!(a.load(Ordering::Relaxed), 1.0);
    }

    #[test]
    fn bitset_set_reports_first_setter_exactly_once() {
        let pool = ThreadPool::new(4);
        let bits = AtomicBitset::new(1000);
        let wins = Counter::new();
        // Each bit is set 8 times; exactly one set() per bit may return true.
        pool.parallel_for(0..8000, Schedule::Dynamic(16), |i| {
            if bits.set(i % 1000) {
                wins.add(1);
            }
        });
        assert_eq!(wins.get(), 1000);
        assert_eq!(bits.count_ones(), 1000);
    }

    #[test]
    fn bitset_iter_ones_matches_set_bits() {
        let bits = AtomicBitset::new(200);
        for i in [0, 1, 63, 64, 65, 128, 199] {
            bits.set(i);
        }
        let ones: Vec<usize> = bits.iter_ones().collect();
        assert_eq!(ones, vec![0, 1, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn bitset_clear_and_clear_all() {
        let bits = AtomicBitset::new(70);
        bits.set(5);
        bits.set(69);
        assert!(bits.clear(5));
        assert!(!bits.clear(5));
        assert!(bits.get(69));
        bits.clear_all();
        assert_eq!(bits.count_ones(), 0);
    }

    #[test]
    fn bitset_zero_len() {
        let bits = AtomicBitset::new(0);
        assert!(bits.is_empty());
        assert_eq!(bits.count_ones(), 0);
        assert_eq!(bits.iter_ones().count(), 0);
    }

    #[test]
    fn for_each_set_matches_iter_ones() {
        let bits = AtomicBitset::new(197); // tail word: 197 % 64 != 0
        for i in [0, 63, 64, 100, 128, 196] {
            bits.set(i);
        }
        let mut via_closure = Vec::new();
        bits.for_each_set(|i| via_closure.push(i));
        assert_eq!(via_closure, bits.iter_ones().collect::<Vec<_>>());
    }

    #[test]
    fn for_each_set_in_words_covers_range_only() {
        let bits = AtomicBitset::new(300);
        for i in [10, 70, 130, 250] {
            bits.set(i);
        }
        let mut got = Vec::new();
        bits.for_each_set_in_words(1, 3, &mut |i| got.push(i));
        assert_eq!(got, vec![70, 130]);
        // Out-of-range hi clamps.
        got.clear();
        bits.for_each_set_in_words(3, 99, &mut |i| got.push(i));
        assert_eq!(got, vec![250]);
    }

    #[test]
    fn union_and_and_not_report_deltas() {
        let a = AtomicBitset::new(130);
        let b = AtomicBitset::new(130);
        for i in [1, 64, 129] {
            a.set(i);
        }
        for i in [64, 65, 129] {
            b.set(i);
        }
        assert_eq!(a.union_with(&b), 1); // only 65 is new
        assert_eq!(a.count_ones(), 4);
        assert_eq!(a.and_not(&b), 3); // 64, 65, 129 cleared
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![1]);
        assert_eq!(a.and_not(&b), 0); // idempotent once disjoint
    }

    #[test]
    fn set_all_respects_tail_word() {
        let bits = AtomicBitset::new(67);
        bits.set_all();
        assert_eq!(bits.count_ones(), 67);
        assert_eq!(bits.iter_ones().max(), Some(66));
        let empty = AtomicBitset::new(0);
        empty.set_all();
        assert_eq!(empty.count_ones(), 0);
    }
}
