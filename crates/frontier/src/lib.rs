//! `essentials-frontier` — active sets of vertices or edges (essential
//! component 2).
//!
//! §III-B of the paper: *"The abstraction that enables support for multiple
//! communication models is the use of frontiers with multiple underlying
//! representations … When represented as an asynchronous queue, a frontier
//! can communicate its elements using messages. When represented as a
//! sparse vector or a dense bitmap stored in shared memory, its elements are
//! directly available to all processes. With thoughtful design, regardless
//! of the underlying representation, the top-level interface to query the
//! frontier … remains the same."*
//!
//! * [`sparse::SparseFrontier`] — Listing 2's vector of active vertices.
//! * [`dense::DenseFrontier`] — atomic bitmap; one bit per vertex.
//! * [`queue::QueueFrontier`] — sharded MPMC queue; the message-passing /
//!   asynchronous representation.
//! * [`VertexFrontier`] — a tagged union giving operators one type that can
//!   switch representation mid-algorithm (direction-optimizing BFS flips
//!   sparse↔dense per iteration).
//! * [`edge::EdgeFrontier`] — active *edges*, for edge-centric programs.
//! * [`worker_buffers::WorkerBuffers`] — lock-free, cache-line-padded,
//!   capacity-retaining per-worker output buffers for building the next
//!   frontier from a parallel expansion without a global lock.
//! * [`double_buffer::DoubleBuffer`] — ping-pong current/next frontier pair
//!   for allocation-free BSP loops.
//! * [`Frontier`] — the representation-independent query interface.

#![warn(missing_docs)]

pub mod convert;
pub mod dense;
pub mod double_buffer;
pub mod edge;
pub mod queue;
pub mod sparse;
pub mod worker_buffers;

use essentials_graph::VertexId;

pub use dense::DenseFrontier;
pub use double_buffer::DoubleBuffer;
pub use edge::EdgeFrontier;
pub use queue::QueueFrontier;
pub use sparse::SparseFrontier;
pub use worker_buffers::{WorkerBuffers, WorkerView};

/// The top-level query interface every representation answers identically.
pub trait Frontier {
    /// Number of active elements.
    fn len(&self) -> usize;
    /// True when nothing is active — the universal convergence condition of
    /// the paper's iterative loop (`while (f.size() != 0)`).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// True if vertex `v` is active. (For representations that can hold
    /// duplicates — sparse, queue — this is membership, not multiplicity.)
    fn contains(&self, v: VertexId) -> bool;
}

/// A vertex frontier whose underlying representation can change between
/// iterations while callers keep using the same interface.
#[derive(Debug, Clone)]
pub enum VertexFrontier {
    /// Vector of active vertex ids (possibly with duplicates).
    Sparse(SparseFrontier),
    /// One bit per vertex.
    Dense(DenseFrontier),
}

impl VertexFrontier {
    /// An empty sparse frontier.
    pub fn sparse() -> Self {
        VertexFrontier::Sparse(SparseFrontier::new())
    }

    /// An empty dense frontier over `n` vertices.
    pub fn dense(n: usize) -> Self {
        VertexFrontier::Dense(DenseFrontier::new(n))
    }

    /// Representation name for traces/benches.
    pub fn kind(&self) -> &'static str {
        match self {
            VertexFrontier::Sparse(_) => "sparse",
            VertexFrontier::Dense(_) => "dense",
        }
    }

    /// Converts into a sparse representation (no-op if already sparse).
    pub fn into_sparse(self) -> SparseFrontier {
        match self {
            VertexFrontier::Sparse(s) => s,
            VertexFrontier::Dense(d) => convert::dense_to_sparse(&d),
        }
    }

    /// Converts into a dense representation over `n` vertices.
    pub fn into_dense(self, n: usize) -> DenseFrontier {
        match self {
            VertexFrontier::Sparse(s) => convert::sparse_to_dense(&s, n),
            VertexFrontier::Dense(d) => {
                assert_eq!(d.capacity(), n, "dense frontier capacity mismatch");
                d
            }
        }
    }
}

impl Frontier for VertexFrontier {
    fn len(&self) -> usize {
        match self {
            VertexFrontier::Sparse(s) => s.len(),
            VertexFrontier::Dense(d) => d.len(),
        }
    }
    fn contains(&self, v: VertexId) -> bool {
        match self {
            VertexFrontier::Sparse(s) => s.contains(v),
            VertexFrontier::Dense(d) => d.contains(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_interface_across_representations() {
        let mut s = SparseFrontier::new();
        s.add_vertex(3);
        s.add_vertex(5);
        let sparse = VertexFrontier::Sparse(s);

        let d = DenseFrontier::new(8);
        d.insert(3);
        d.insert(5);
        let dense = VertexFrontier::Dense(d);

        for f in [&sparse, &dense] {
            assert_eq!(f.len(), 2);
            assert!(f.contains(3) && f.contains(5) && !f.contains(4));
            assert!(!f.is_empty());
        }
        assert_eq!(sparse.kind(), "sparse");
        assert_eq!(dense.kind(), "dense");
    }

    #[test]
    fn representation_switch_preserves_the_set() {
        let mut s = SparseFrontier::new();
        for v in [9, 1, 4, 4] {
            s.add_vertex(v);
        }
        let dense = VertexFrontier::Sparse(s).into_dense(16);
        assert_eq!(dense.len(), 3); // dup collapsed
        let sparse = VertexFrontier::Dense(dense).into_sparse();
        assert_eq!(sparse.as_slice(), &[1, 4, 9]);
    }
}
