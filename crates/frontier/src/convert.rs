//! Conversions between frontier representations.
//!
//! Direction-optimizing traversal flips representation per iteration:
//! sparse→dense when the frontier grows past a density threshold (pull
//! iterations test membership), dense→sparse when it shrinks again. The
//! conversions preserve the *set* of active vertices; sparse duplicates
//! collapse on the way in.

use crate::dense::DenseFrontier;
use crate::queue::QueueFrontier;
use crate::sparse::SparseFrontier;

/// Sparse → dense over a universe of `n` vertices. Duplicates collapse.
pub fn sparse_to_dense(s: &SparseFrontier, n: usize) -> DenseFrontier {
    let d = DenseFrontier::new(n);
    for v in s.iter() {
        d.insert(v);
    }
    d
}

/// Dense → sparse (ascending id order, no duplicates), word-at-a-time:
/// all-zero bitmap words cost one load, set words decode with
/// `trailing_zeros` straight into the push.
pub fn dense_to_sparse(d: &DenseFrontier) -> SparseFrontier {
    let mut out = Vec::with_capacity(d.len());
    d.for_each_active(|v| out.push(v));
    SparseFrontier::from_vec(out)
}

/// Zero-allocation dense → sparse: decodes into `out` (cleared first), so a
/// recycled frontier vector absorbs the conversion without touching the
/// allocator. Callers reserve capacity once during warm-up; steady-state
/// iterations reuse it.
pub fn dense_to_sparse_into(d: &DenseFrontier, out: &mut Vec<essentials_graph::VertexId>) {
    out.clear();
    out.reserve(d.len());
    d.for_each_active(|v| out.push(v));
}

/// Sparse → queue: every active vertex becomes a message, distributed
/// round-robin over the lanes.
pub fn sparse_to_queue(s: &SparseFrontier, lanes: usize) -> QueueFrontier {
    let q = QueueFrontier::new(lanes);
    for (i, v) in s.iter().enumerate() {
        q.push(i, v);
    }
    q
}

/// Queue → sparse, draining the queue.
pub fn queue_to_sparse(q: &QueueFrontier) -> SparseFrontier {
    SparseFrontier::from_vec(q.drain())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_dense_round_trip_collapses_duplicates() {
        let s = SparseFrontier::from_vec(vec![4, 1, 4, 9]);
        let d = sparse_to_dense(&s, 10);
        assert_eq!(d.len(), 3);
        let s2 = dense_to_sparse(&d);
        assert_eq!(s2.as_slice(), &[1, 4, 9]);
    }

    #[test]
    fn queue_round_trip_preserves_multiset() {
        let s = SparseFrontier::from_vec(vec![3, 3, 7]);
        let q = sparse_to_queue(&s, 2);
        assert_eq!(q.len(), 3);
        let mut back = queue_to_sparse(&q).into_vec();
        back.sort_unstable();
        assert_eq!(back, vec![3, 3, 7]);
        assert!(q.is_empty());
    }

    #[test]
    fn empty_conversions() {
        let s = SparseFrontier::new();
        assert_eq!(sparse_to_dense(&s, 5).len(), 0);
        assert!(dense_to_sparse(&DenseFrontier::new(5)).is_empty());
        assert!(queue_to_sparse(&sparse_to_queue(&s, 3)).is_empty());
    }

    #[test]
    fn dense_to_sparse_into_reuses_storage() {
        let d = DenseFrontier::new(130);
        for v in [0, 64, 129] {
            d.insert(v);
        }
        let mut out = Vec::with_capacity(130);
        let ptr = out.as_ptr();
        dense_to_sparse_into(&d, &mut out);
        assert_eq!(out, vec![0, 64, 129]);
        assert_eq!(out.as_ptr(), ptr, "capacity was sufficient; no realloc");
        dense_to_sparse_into(&DenseFrontier::new(130), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn ids_map_through_vertexid() {
        let s = SparseFrontier::from_vec(vec![0 as essentials_graph::VertexId]);
        assert!(sparse_to_dense(&s, 1).contains(0));
    }
}
