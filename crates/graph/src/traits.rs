//! Capability traits decoupling operators from concrete representations.
//!
//! §III-D of the paper: "since parts of our graph abstraction allow for
//! multiple underlying representations, partitioned graphs could also simply
//! be expressed as another such representation … when the top-level graph
//! data structure is queried, the APIs will need to support the use of the
//! corresponding partitioned sub-graph to return the result of a query."
//! These traits are that top-level query surface: [`crate::Graph`],
//! the byte-coded [`crate::CompressedGraph`] and its mmapped views,
//! subgraphs, and `essentials-partition`'s partitioned graphs all implement
//! them, so operators and algorithms are written once.
//!
//! Two layers. The **adjacency** traits ([`OutAdjacency`], [`InAdjacency`],
//! [`OutWeights`], [`InWeights`]) are what every representation offers: per
//! vertex a degree, a contiguous edge-id range, and the neighbors as an
//! ascending *stream* read from the row's start — a slice walk on raw CSR, a
//! [`NeighborDecoder`](crate::NeighborDecoder) on compressed CSR — with
//! weights looked up by edge id. The whole advance family is written against
//! this layer. The **slice** traits ([`OutNeighbors`], [`InNeighbors`],
//! [`EdgeWeights`], [`InEdgeWeights`]) add random access for the
//! representations that store uncompressed columns.

use std::iter::Zip;
use std::ops::Range;

use crate::types::{EdgeId, EdgeValue, VertexId};

/// Minimal shape of any graph-like structure.
pub trait GraphBase {
    /// Number of vertices (ids are `0..num_vertices`).
    fn num_vertices(&self) -> usize;
    /// Number of directed edges.
    fn num_edges(&self) -> usize;
    /// Iterator over all vertex ids.
    fn vertices(&self) -> Range<VertexId> {
        0..self.num_vertices() as VertexId
    }
}

/// Forward (push-direction) adjacency of any representation.
pub trait OutAdjacency: GraphBase {
    /// Stream of one vertex's destinations, ascending.
    type OutIter<'a>: Iterator<Item = VertexId>
    where
        Self: 'a;
    /// Out-degree of `v`.
    fn out_degree(&self, v: VertexId) -> usize;
    /// Edge-id range of `v`'s out-edges (ids in the primary CSR order).
    fn out_edges(&self, v: VertexId) -> Range<EdgeId>;
    /// Destinations of `out_edges(v)` in edge order: a slice walk on raw
    /// columns, a decoder on compressed ones.
    fn out_neighbors_from(&self, v: VertexId) -> Self::OutIter<'_>;
    /// [`Self::out_neighbors_from`] paired with each destination's edge id.
    #[inline]
    fn out_edges_from(&self, v: VertexId) -> Zip<Range<EdgeId>, Self::OutIter<'_>> {
        self.out_edges(v).zip(self.out_neighbors_from(v))
    }
}

/// Reverse (pull-direction) adjacency of any representation: who points at
/// me? Backed by the transpose (CSC), "at the cost of memory space"
/// (§III-C); in-edge ids index the transpose's edge array.
pub trait InAdjacency: GraphBase {
    /// Stream of one vertex's sources, ascending.
    type InIter<'a>: Iterator<Item = VertexId>
    where
        Self: 'a;
    /// Whether the in-stream exists. A representation built without its
    /// transpose answers `false`, and the other methods then panic; the
    /// direction engine asks this once per run and pushes instead.
    fn has_in_edges(&self) -> bool;
    /// In-degree of `v`.
    fn in_degree(&self, v: VertexId) -> usize;
    /// Edge-id range of `v`'s in-edges (transpose CSR order).
    fn in_edges(&self, v: VertexId) -> Range<EdgeId>;
    /// Sources of `in_edges(v)` in edge order.
    fn in_neighbors_from(&self, v: VertexId) -> Self::InIter<'_>;
    /// [`Self::in_neighbors_from`] paired with each source's in-edge id.
    #[inline]
    fn in_edges_from(&self, v: VertexId) -> Zip<Range<EdgeId>, Self::InIter<'_>> {
        self.in_edges(v).zip(self.in_neighbors_from(v))
    }
}

/// Edge values addressable by out-edge id.
pub trait OutWeights<W: EdgeValue>: OutAdjacency {
    /// Weight of out-edge `e`.
    fn edge_weight(&self, e: EdgeId) -> W;
}

/// Edge values addressable by in-edge id (transpose order).
pub trait InWeights<W: EdgeValue>: InAdjacency {
    /// Weight of in-edge `e` — entry `e` of the transpose's value array.
    fn in_edge_weight(&self, e: EdgeId) -> W;
}

/// Forward adjacency stored as uncompressed columns: random access by edge
/// id and whole-row slices.
pub trait OutNeighbors: OutAdjacency {
    /// Destination of out-edge `e`.
    fn edge_dest(&self, e: EdgeId) -> VertexId;
    /// Neighbor slice of `v` (destinations of `out_edges(v)` in order).
    fn out_neighbors(&self, v: VertexId) -> &[VertexId];
}

/// Reverse adjacency stored as uncompressed columns.
pub trait InNeighbors: InAdjacency {
    /// In-neighbor slice of `v` (sources of edges into `v`).
    fn in_neighbors(&self, v: VertexId) -> &[VertexId];
}

/// Out-edge weights as row slices.
pub trait EdgeWeights<W: EdgeValue>: OutNeighbors + OutWeights<W> {
    /// Weight slice aligned with [`OutNeighbors::out_neighbors`].
    fn out_neighbor_weights(&self, v: VertexId) -> &[W];
}

/// Weights of incoming edges, aligned with [`InNeighbors::in_neighbors`].
pub trait InEdgeWeights<W: EdgeValue>: InNeighbors + InWeights<W> {
    /// Weight slice aligned with [`InNeighbors::in_neighbors`] — entry `k`
    /// is the weight of the edge `in_neighbors(v)[k] → v`.
    fn in_neighbor_weights(&self, v: VertexId) -> &[W];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::graph::Graph;

    // A generic function usable with any representation — the point of the
    // trait layer.
    fn count_reachable_in_one_hop<G: OutNeighbors>(g: &G, v: VertexId) -> usize {
        g.out_neighbors(v).len()
    }

    #[test]
    fn operators_can_be_generic_over_representations() {
        let g = Graph::from_coo(&Coo::from_edges(3, [(0, 1, ()), (0, 2, ())]));
        assert_eq!(count_reachable_in_one_hop(&g, 0), 2);
        assert_eq!(g.vertices().count(), 3);
    }
}
