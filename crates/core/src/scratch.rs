//! Reusable scratch memory for the frontier pipeline.
//!
//! A steady-state iteration (expand → collect → dedup) used to allocate on
//! every superstep: one `Vec` per worker in the collector, an O(n) bitmap
//! in `uniquify`, and the output frontier itself. [`AdvanceScratch`] owns
//! all three, grown on demand and never shrunk, so after warm-up the
//! advance path touches the allocator zero times.
//!
//! The scratch checks in and out of the [`crate::Context`] through a single
//! [`SwapSlot`] — no lock, no allocation. If two algorithms on one context
//! overlap (the slot is empty when the second asks), the loser simply
//! allocates a fresh scratch and the two instances rotate through the slot
//! afterwards; correctness never depends on winning the swap. The slot's
//! atomic protocol (and its memory orderings) live in [`crate::slot`],
//! where they are tested by exhaustive interleaving enumeration.

use crate::slot::SwapSlot;
use essentials_frontier::{DenseFrontier, SparseFrontier, WorkerBuffers};
use essentials_graph::VertexId;
use essentials_parallel::atomics::{AtomicBitset, CachePadded};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bound on pooled output vectors; algorithms juggle at most a current and
/// a next frontier plus a couple of temporaries.
const MAX_SPARE_FRONTIERS: usize = 4;

/// Bound on pooled dense (bitmap) frontiers. Pull/dense-push iterations hold
/// a current, a next, and possibly an unvisited-candidates bitmap.
const MAX_SPARE_DENSE: usize = 4;

/// Bound on each pooled numeric-buffer kind (`f64` rank vectors, `u32`
/// bin-entry arrays, `usize` offset/cursor tables). The blocked gather
/// holds a handful of each across a run; six covers every concurrent
/// holder plus one spare.
const MAX_SPARE_NUMERIC: usize = 6;

/// All reusable memory one advance/filter iteration needs.
pub struct AdvanceScratch {
    /// Lock-free per-worker output buffers.
    pub(crate) buffers: WorkerBuffers,
    /// Per-worker partial sums (the pull kernels' scanned in-edges).
    pub(crate) tallies: WorkerTallies,
    /// Dedup bitmap for fused-unique expansion. Bits are cleared after each
    /// use by walking the (sparse) output, so the bitmap stays O(n) in
    /// memory but O(|output|) in per-iteration time.
    pub(crate) seen: AtomicBitset,
    /// Recycled output vectors (frontier pool).
    spare: Vec<Vec<VertexId>>,
    /// Recycled dense frontiers (bitmap pool). Capacity-keyed: a pooled
    /// bitmap is only handed out for the vertex universe it was built for,
    /// so reuse is exact and clearing stays O(n/64) word stores.
    spare_dense: Vec<DenseFrontier>,
    /// Recycled `f64` buffers (rank double-buffers, blocked-gather values).
    spare_f64: Vec<Vec<f64>>,
    /// Recycled `u32` buffers (blocked-gather destination/source entries,
    /// multi-source level tables).
    spare_u32: Vec<Vec<u32>>,
    /// Recycled `u64` buffers (multi-source visited/frontier mask words).
    spare_u64: Vec<Vec<u64>>,
    /// Recycled `usize` buffers (blocked-gather offsets and cursors).
    spare_usize: Vec<Vec<usize>>,
}

impl AdvanceScratch {
    /// Empty scratch sized for `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        AdvanceScratch {
            buffers: WorkerBuffers::new(workers),
            tallies: WorkerTallies {
                slots: Vec::new(), // alloc-ok: Vec::new never allocates (cold constructor)
            },
            seen: AtomicBitset::new(0),
            spare: Vec::new(),       // alloc-ok: see above
            spare_dense: Vec::new(), // alloc-ok: see above
            spare_f64: Vec::new(),   // alloc-ok: see above
            spare_u32: Vec::new(),   // alloc-ok: see above
            spare_u64: Vec::new(),   // alloc-ok: see above
            spare_usize: Vec::new(), // alloc-ok: see above
        }
    }

    /// A cleared `f64` buffer, reusing the largest pooled capacity. The
    /// caller resizes to its working length; steady state (same graph, same
    /// operator) always finds a buffer that already fits.
    pub(crate) fn take_f64(&mut self) -> Vec<f64> {
        take_spare(&mut self.spare_f64)
    }

    /// Returns an `f64` buffer to the pool (dropped when the pool is full).
    pub(crate) fn put_f64(&mut self, v: Vec<f64>) {
        put_spare(&mut self.spare_f64, v);
    }

    /// A cleared `u32` buffer from the pool ([`Self::take_f64`] semantics).
    pub(crate) fn take_u32(&mut self) -> Vec<u32> {
        take_spare(&mut self.spare_u32)
    }

    /// Returns a `u32` buffer to the pool.
    pub(crate) fn put_u32(&mut self, v: Vec<u32>) {
        put_spare(&mut self.spare_u32, v);
    }

    /// A cleared `u64` buffer from the pool ([`Self::take_f64`] semantics).
    /// The multi-source traversals draw their per-vertex mask words from
    /// here.
    pub(crate) fn take_u64(&mut self) -> Vec<u64> {
        take_spare(&mut self.spare_u64)
    }

    /// Returns a `u64` buffer to the pool.
    pub(crate) fn put_u64(&mut self, v: Vec<u64>) {
        put_spare(&mut self.spare_u64, v);
    }

    /// A cleared `usize` buffer from the pool ([`Self::take_f64`]
    /// semantics).
    pub(crate) fn take_usize(&mut self) -> Vec<usize> {
        take_spare(&mut self.spare_usize)
    }

    /// Returns a `usize` buffer to the pool.
    pub(crate) fn put_usize(&mut self, v: Vec<usize>) {
        put_spare(&mut self.spare_usize, v);
    }

    /// Makes the dedup bitmap cover at least `n` vertices. All bits of the
    /// returned bitmap are clear (the fused-unique path restores clearness
    /// after every use; growth allocates a fresh zeroed bitmap).
    pub(crate) fn ensure_seen(&mut self, n: usize) -> &AtomicBitset {
        if self.seen.len() < n {
            self.seen = AtomicBitset::new(n);
        }
        &self.seen
    }

    /// A cleared output vector, reusing pooled capacity when available.
    pub(crate) fn take_vec(&mut self) -> Vec<VertexId> {
        let mut v = self.spare.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Returns a vector to the pool, which keeps the roomiest on top: the
    /// next output draws the largest capacity, so a seed frontier's
    /// one-slot vector never makes an expansion regrow. A full pool drops
    /// its smallest vector.
    pub(crate) fn put_vec(&mut self, v: Vec<VertexId>) {
        if v.capacity() == 0 {
            return;
        }
        let at = self.spare.partition_point(|s| s.capacity() <= v.capacity());
        if self.spare.len() < MAX_SPARE_FRONTIERS {
            self.spare.insert(at, v); // alloc-ok: cold pool-return; spine bounded by MAX_SPARE_FRONTIERS
        } else if at > 0 {
            self.spare.remove(0);
            self.spare.insert(at - 1, v);
        }
    }

    /// An empty dense frontier over `n` vertices, reusing a pooled bitmap of
    /// exactly that capacity when one exists (cleared in O(n/64) word
    /// stores, no allocation). Mismatched capacities allocate fresh — the
    /// universe is fixed per graph, so steady state always hits the pool.
    pub(crate) fn take_dense(&mut self, n: usize) -> DenseFrontier {
        match self.spare_dense.iter().position(|d| d.capacity() == n) {
            Some(i) => {
                let d = self.spare_dense.swap_remove(i);
                d.clear();
                d
            }
            None => DenseFrontier::new(n),
        }
    }

    /// Returns a dense frontier to the pool (dropped if the pool is full).
    pub(crate) fn put_dense(&mut self, d: DenseFrontier) {
        if self.spare_dense.len() < MAX_SPARE_DENSE && d.capacity() > 0 {
            self.spare_dense.push(d); // alloc-ok: cold pool-return; spine bounded by MAX_SPARE_DENSE
        }
    }
}

/// Per-worker `usize` partial sums, one cache line each. Worker `tid`
/// touches only slot `tid` — a plain load and store, never a shared
/// read-modify-write — and the caller folds the slots once the region has
/// joined.
pub(crate) struct WorkerTallies {
    slots: Vec<CachePadded<AtomicUsize>>,
}

impl WorkerTallies {
    /// Zeroes the first `workers` slots, growing the table on first use.
    pub(crate) fn reset(&mut self, workers: usize) {
        if self.slots.len() < workers {
            self.slots
                .resize_with(workers, || CachePadded(AtomicUsize::new(0))); // alloc-ok: grows once per worker count; steady state reuses the table
        }
        for slot in &mut self.slots {
            *slot.0.get_mut() = 0;
        }
    }

    /// Adds `n` to worker `tid`'s own slot.
    #[inline]
    pub(crate) fn tally(&self, tid: usize, n: usize) {
        let sum = self.slots[tid].load(Ordering::Relaxed) + n;
        self.slots[tid].store(sum, Ordering::Relaxed);
    }

    /// The sum over every slot (call after the region has joined).
    pub(crate) fn total(&mut self) -> usize {
        self.slots.iter_mut().map(|slot| *slot.0.get_mut()).sum()
    }
}

/// Pops the largest-capacity pooled buffer (cleared), or an empty vector.
/// Largest-first keeps one warm maximal buffer circulating per user even
/// when differently sized temporaries share the pool.
fn take_spare<T>(pool: &mut Vec<Vec<T>>) -> Vec<T> {
    let best = pool
        .iter()
        .enumerate()
        .max_by_key(|(_, v)| v.capacity())
        .map(|(i, _)| i);
    match best {
        Some(i) => {
            let mut v = pool.swap_remove(i);
            v.clear();
            v
        }
        None => Vec::new(), // alloc-ok: Vec::new never allocates (cold miss)
    }
}

/// Returns a buffer to a bounded pool (dropped when full or capacity-less).
fn put_spare<T>(pool: &mut Vec<Vec<T>>, v: Vec<T>) {
    if pool.len() < MAX_SPARE_NUMERIC && v.capacity() > 0 {
        pool.push(v); // alloc-ok: cold pool-return; spine bounded by MAX_SPARE_NUMERIC
    }
}

/// Lock-free single-slot exchanger for the scratch: scratch-specific policy
/// (lazy construction, worker-count growth, replace-keeps-newest) layered on
/// the generic [`SwapSlot`] protocol.
///
/// Public so a serving layer can keep a *pool* of slots and hand each
/// admitted request its own via [`crate::Context::with_parts`]; the slot
/// API itself stays crate-internal — outside code only creates slots and
/// threads them through contexts.
pub struct ScratchSlot {
    slot: SwapSlot<AdvanceScratch>,
}

impl Default for ScratchSlot {
    fn default() -> Self {
        ScratchSlot::new()
    }
}

impl ScratchSlot {
    /// An empty slot; the first `take` lazily builds the scratch.
    pub fn new() -> Self {
        ScratchSlot {
            slot: SwapSlot::new(),
        }
    }

    /// Takes the parked scratch, or builds a fresh one if the slot is empty
    /// (first use, or another algorithm holds it right now).
    pub(crate) fn take(&self, workers: usize) -> Box<AdvanceScratch> {
        match self.slot.take() {
            Some(mut s) => {
                s.buffers.ensure_workers(workers);
                s
            }
            None => Box::new(AdvanceScratch::new(workers)), // alloc-ok: first-use or contended miss; steady state takes the parked scratch
        }
    }

    /// Parks the scratch for the next taker. If another instance got parked
    /// meanwhile, the incoming (most recently used, cache-warm) one replaces
    /// it and the older one is freed.
    pub(crate) fn put(&self, scratch: Box<AdvanceScratch>) {
        drop(self.slot.put(scratch));
    }

    /// Recycles a frontier's storage into the parked scratch's vector pool.
    /// A no-op (the vector is dropped) when the slot is empty.
    pub(crate) fn recycle(&self, f: SparseFrontier, workers: usize) {
        let mut s = self.take(workers);
        s.put_vec(f.into_vec());
        self.put(s);
    }

    /// Recycles a dense frontier's bitmap into the parked scratch's pool
    /// (the dense mirror of [`Self::recycle`]).
    pub(crate) fn recycle_dense(&self, f: DenseFrontier, workers: usize) {
        let mut s = self.take(workers);
        s.put_dense(f);
        self.put(s);
    }

    /// A dense frontier over `n` vertices from the parked scratch's pool
    /// (fresh allocation if the slot is empty or no pooled bitmap matches).
    pub(crate) fn take_dense(&self, n: usize, workers: usize) -> DenseFrontier {
        let mut s = self.take(workers);
        let d = s.take_dense(n);
        self.put(s);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_round_trips_the_same_allocation() {
        let slot = ScratchSlot::new();
        let mut s = slot.take(4);
        let mut v = s.take_usize();
        v.reserve(1000);
        let (cap, addr) = (v.capacity(), v.as_ptr());
        s.put_usize(v);
        slot.put(s);
        let v2 = slot.take(4).take_usize();
        assert_eq!(v2.capacity(), cap);
        assert_eq!(v2.as_ptr(), addr);
    }

    #[test]
    fn empty_slot_allocates_fresh() {
        let slot = ScratchSlot::new();
        let a = slot.take(2);
        let b = slot.take(2); // slot empty while `a` is out
        assert_eq!(b.buffers.workers(), 2);
        slot.put(a);
        slot.put(b); // replaces, freeing the older one — must not leak/crash
    }

    #[test]
    fn worker_tallies_sum_and_reset() {
        let mut s = AdvanceScratch::new(2);
        s.tallies.reset(3);
        s.tallies.tally(0, 5);
        s.tallies.tally(2, 7);
        s.tallies.tally(0, 1);
        assert_eq!(s.tallies.total(), 13);
        s.tallies.reset(2);
        assert_eq!(s.tallies.total(), 0);
    }

    #[test]
    fn seen_bitmap_grows_monotonically() {
        let mut s = AdvanceScratch::new(2);
        assert_eq!(s.ensure_seen(100).len(), 100);
        assert_eq!(s.ensure_seen(50).len(), 100);
        assert_eq!(s.ensure_seen(200).len(), 200);
    }

    #[test]
    fn dense_pool_matches_capacity_exactly() {
        let mut s = AdvanceScratch::new(1);
        let d = DenseFrontier::new(100);
        d.insert(7);
        let addr = d.bits().words().as_ptr();
        s.put_dense(d);
        // Wrong universe: fresh allocation, pooled one stays parked.
        assert_eq!(s.take_dense(50).capacity(), 50);
        // Right universe: same words, cleared.
        let got = s.take_dense(100);
        assert_eq!(got.bits().words().as_ptr(), addr);
        assert!(got.is_empty());
        assert!(!got.contains(7));
        for _ in 0..10 {
            s.put_dense(DenseFrontier::new(8));
        }
        assert!(s.spare_dense.len() <= MAX_SPARE_DENSE);
    }

    #[test]
    fn numeric_pools_prefer_largest_capacity_and_stay_bounded() {
        let mut s = AdvanceScratch::new(1);
        s.put_f64(Vec::with_capacity(16));
        let mut big = Vec::with_capacity(1024);
        big.push(1.0);
        let addr = big.as_ptr();
        s.put_f64(big);
        let got = s.take_f64();
        assert_eq!(got.as_ptr(), addr, "largest pooled buffer comes back first");
        assert!(got.is_empty());
        for _ in 0..12 {
            s.put_u32(Vec::with_capacity(4));
            s.put_usize(Vec::with_capacity(4));
        }
        assert!(s.spare_u32.len() <= MAX_SPARE_NUMERIC);
        assert!(s.spare_usize.len() <= MAX_SPARE_NUMERIC);
        // A cold miss hands out an (allocation-free) empty vector.
        let mut empty = AdvanceScratch::new(1);
        assert_eq!(empty.take_usize().capacity(), 0);
    }

    #[test]
    fn vec_pool_bounds_and_reuses() {
        let mut s = AdvanceScratch::new(1);
        let mut v = Vec::with_capacity(64);
        v.push(1);
        let addr = v.as_ptr();
        s.put_vec(v);
        let got = s.take_vec();
        assert!(got.is_empty());
        assert_eq!(got.as_ptr(), addr);
        for _ in 0..10 {
            s.put_vec(Vec::with_capacity(8));
        }
        assert!(s.spare.len() <= MAX_SPARE_FRONTIERS);
    }
}
