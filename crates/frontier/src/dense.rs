//! Dense (bitmap) frontier: one atomic bit per vertex.
//!
//! The representation of choice when a large fraction of vertices is active
//! (the middle iterations of BFS on low-diameter graphs) and for pull
//! traversals, which test membership per in-neighbor — O(1) here vs. O(len)
//! on the sparse vector. Insertion is idempotent and thread-safe, so a
//! parallel expansion needs no uniquify pass.

use essentials_graph::VertexId;
use essentials_parallel::atomics::AtomicBitset;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bitmap-backed frontier over a fixed vertex universe.
#[derive(Debug)]
pub struct DenseFrontier {
    bits: AtomicBitset,
    /// Cached popcount maintained by insert/remove; avoids O(n/64) scans in
    /// the loop convergence check.
    count: AtomicUsize,
}

impl DenseFrontier {
    /// An empty frontier over `n` vertices.
    pub fn new(n: usize) -> Self {
        DenseFrontier {
            bits: AtomicBitset::new(n),
            count: AtomicUsize::new(0),
        }
    }

    /// Vertex-universe size.
    pub fn capacity(&self) -> usize {
        self.bits.len()
    }

    /// Activates `v`; returns true if this call changed it. Thread-safe and
    /// idempotent (the "claim" primitive of parallel expansions).
    #[inline]
    pub fn insert(&self, v: VertexId) -> bool {
        let changed = self.bits.set(v as usize);
        if changed {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        changed
    }

    /// Deactivates `v`; returns true if this call changed it.
    #[inline]
    pub fn remove(&self, v: VertexId) -> bool {
        let changed = self.bits.clear(v as usize);
        if changed {
            self.count.fetch_sub(1, Ordering::Relaxed);
        }
        changed
    }

    /// O(1) membership — what makes pull traversal affordable.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.bits.get(v as usize)
    }

    /// Number of active vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// True when no vertex is active.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Active fraction of the universe — operators use this to pick a
    /// traversal direction.
    pub fn density(&self) -> f64 {
        if self.capacity() == 0 {
            0.0
        } else {
            self.len() as f64 / self.capacity() as f64
        }
    }

    /// Re-derives the cached count from the bitmap (one popcount per
    /// word). For kernels that set bits through [`Self::bits`], so that no
    /// shared counter is bumped per insert; phase-synchronous like
    /// [`Self::clear`].
    pub fn recount(&self) {
        self.count.store(self.bits.count_ones(), Ordering::Relaxed);
    }

    /// Deactivates everything (between iterations; not concurrent with
    /// inserts).
    pub fn clear(&self) {
        self.bits.clear_all();
        self.count.store(0, Ordering::Relaxed);
    }

    /// Iterates active ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.bits.iter_ones().map(|i| i as VertexId)
    }

    /// Calls `f(v)` for every active vertex via the word-parallel scan
    /// ([`AtomicBitset::for_each_set`]): all-zero words cost one load each,
    /// which is what makes dense iteration competitive with sparse below
    /// ~50% density.
    #[inline]
    pub fn for_each_active(&self, mut f: impl FnMut(VertexId)) {
        self.bits.for_each_set(|i| f(i as VertexId));
    }

    /// Activates everything `other` has active (word-level union) and fixes
    /// the cached count. Phase-synchronous like `clear` — not concurrent
    /// with inserts. Capacities must match.
    pub fn union_with(&self, other: &DenseFrontier) {
        let added = self.bits.union_with(&other.bits);
        self.count.fetch_add(added, Ordering::Relaxed);
    }

    /// Deactivates everything `other` has active (word-level `&= !`) and
    /// fixes the cached count. The unvisited-candidates maintenance step of
    /// masked pull: retire this iteration's admissions 64 at a time. Same
    /// phase discipline as [`Self::union_with`].
    pub fn and_not(&self, other: &DenseFrontier) {
        let removed = self.bits.and_not(&other.bits);
        self.count.fetch_sub(removed, Ordering::Relaxed);
    }

    /// Activates the whole universe (word stores; initial candidate set of
    /// masked pull).
    pub fn set_all(&self) {
        self.bits.set_all();
        self.count.store(self.capacity(), Ordering::Relaxed);
    }

    /// The backing bitmap, for word-level kernels (chunked parallel scans).
    #[inline]
    pub fn bits(&self) -> &AtomicBitset {
        &self.bits
    }
}

impl Clone for DenseFrontier {
    fn clone(&self) -> Self {
        let d = DenseFrontier::new(self.capacity());
        for v in self.iter() {
            d.insert(v);
        }
        d
    }
}

impl crate::Frontier for DenseFrontier {
    fn len(&self) -> usize {
        DenseFrontier::len(self)
    }
    fn contains(&self, v: VertexId) -> bool {
        DenseFrontier::contains(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_parallel::{Schedule, ThreadPool};

    #[test]
    fn insert_is_idempotent_and_counted_once() {
        let f = DenseFrontier::new(10);
        assert!(f.insert(3));
        assert!(!f.insert(3));
        assert_eq!(f.len(), 1);
        assert!(f.contains(3));
    }

    #[test]
    fn remove_and_clear() {
        let f = DenseFrontier::new(10);
        f.insert(1);
        f.insert(2);
        assert!(f.remove(1));
        assert!(!f.remove(1));
        assert_eq!(f.len(), 1);
        f.clear();
        assert!(f.is_empty());
    }

    #[test]
    fn density_and_iteration_order() {
        let f = DenseFrontier::new(100);
        for v in [70, 2, 65] {
            f.insert(v);
        }
        assert!((f.density() - 0.03).abs() < 1e-12);
        assert_eq!(f.iter().collect::<Vec<_>>(), vec![2, 65, 70]);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spins up a real thread pool; Miri runs the serial tests
    fn concurrent_inserts_count_exactly() {
        let pool = ThreadPool::new(4);
        let f = DenseFrontier::new(1000);
        // 4000 inserts over 1000 slots: count must land on exactly 1000.
        pool.parallel_for(0..4000, Schedule::Dynamic(32), |i| {
            f.insert((i % 1000) as VertexId);
        });
        assert_eq!(f.len(), 1000);
        assert_eq!(f.iter().count(), 1000);
    }

    #[test]
    fn recount_settles_bits_set_directly() {
        let f = DenseFrontier::new(200);
        f.insert(3);
        for v in [3, 64, 199] {
            f.bits().set(v);
        }
        assert_eq!(f.len(), 1);
        f.recount();
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn word_ops_maintain_cached_count() {
        let a = DenseFrontier::new(200);
        let b = DenseFrontier::new(200);
        for v in [3, 64, 150] {
            a.insert(v);
        }
        for v in [64, 65, 199] {
            b.insert(v);
        }
        a.union_with(&b);
        assert_eq!(a.len(), 5);
        a.and_not(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 150]);
    }

    #[test]
    fn set_all_and_for_each_active() {
        let f = DenseFrontier::new(70);
        f.set_all();
        assert_eq!(f.len(), 70);
        assert!((f.density() - 1.0).abs() < 1e-12);
        let mut seen = Vec::new();
        f.for_each_active(|v| seen.push(v));
        assert_eq!(seen.len(), 70);
        assert_eq!(seen.last(), Some(&69));
    }

    #[test]
    fn clone_preserves_set() {
        let f = DenseFrontier::new(50);
        f.insert(10);
        f.insert(49);
        let g = f.clone();
        assert_eq!(g.len(), 2);
        assert!(g.contains(49));
    }
}
