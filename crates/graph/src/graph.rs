//! The multi-representation graph container (paper Listing 1 + §III-C).
//!
//! The paper's `graph_t` uses *variadic inheritance* to stack underlying
//! representations behind one graph-focused API. The Rust equivalent is
//! composition: a [`Graph`] always owns a CSR (the push representation) and
//! optionally a CSC (pull) and/or a COO (edge-centric iteration). Methods
//! use the paper's names (`get_num_vertices`, `get_edges`,
//! `get_dest_vertex`, `get_edge_weight`) alongside idiomatic trait impls.

use std::iter::Copied;
use std::slice;

use crate::coo::Coo;
use crate::csr::Csr;
use crate::traits::{
    EdgeWeights, GraphBase, InAdjacency, InEdgeWeights, InNeighbors, InWeights, OutAdjacency,
    OutNeighbors, OutWeights,
};
use crate::types::{EdgeId, EdgeValue, VertexId};

/// A graph holding one or more simultaneous underlying representations.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph<W: EdgeValue = f32> {
    csr: Csr<W>,
    csc: Option<Csr<W>>,
    coo: Option<Coo<W>>,
}

impl<W: EdgeValue> Graph<W> {
    /// Wraps an existing CSR as a push-only graph.
    pub fn from_csr(csr: Csr<W>) -> Self {
        Graph {
            csr,
            csc: None,
            coo: None,
        }
    }

    /// Compiles a push-only graph from an edge list.
    pub fn from_coo(coo: &Coo<W>) -> Self {
        Graph::from_csr(Csr::from_coo(coo))
    }

    /// Materializes the CSC (transposed CSR) enabling pull traversal.
    /// Idempotent. Returns `self` for builder-style chaining.
    pub fn with_csc(mut self) -> Self {
        self.ensure_csc();
        self
    }

    /// Materializes the COO enabling edge-centric iteration. Idempotent.
    pub fn with_coo(mut self) -> Self {
        self.ensure_coo();
        self
    }

    /// Builds the CSC in place if absent.
    pub fn ensure_csc(&mut self) {
        if self.csc.is_none() {
            self.csc = Some(self.csr.transposed());
        }
    }

    /// Builds the COO in place if absent.
    pub fn ensure_coo(&mut self) {
        if self.coo.is_none() {
            self.coo = Some(self.csr.to_coo());
        }
    }

    /// The push (CSR) representation. Always present.
    #[inline]
    pub fn csr(&self) -> &Csr<W> {
        &self.csr
    }

    /// The pull (CSC) representation, if materialized.
    #[inline]
    pub fn csc(&self) -> Option<&Csr<W>> {
        self.csc.as_ref()
    }

    /// The pull representation, panicking with a remediation hint if it was
    /// never materialized — pull operators call this.
    #[inline]
    pub fn require_csc(&self) -> &Csr<W> {
        self.csc
            .as_ref()
            .expect("pull traversal needs a CSC: build the graph with .with_csc()")
    }

    /// The edge-centric (COO) representation, if materialized.
    #[inline]
    pub fn coo(&self) -> Option<&Coo<W>> {
        self.coo.as_ref()
    }

    // ---- Paper-named API (Listing 1) ------------------------------------

    /// Number of vertices (`get_num_vertices` in Listing 4).
    #[inline]
    pub fn get_num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn get_num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Edge-id range of `v`'s out-edges (`get_edges(v)` in Listing 3).
    #[inline]
    pub fn get_edges(&self, v: VertexId) -> std::ops::Range<EdgeId> {
        self.csr.edge_range(v)
    }

    /// Destination of edge `e` (`get_dest_vertex(e)` in Listing 3).
    #[inline]
    pub fn get_dest_vertex(&self, e: EdgeId) -> VertexId {
        self.csr.edge_dest(e)
    }

    /// Source of edge `e` (binary search; see [`Csr::edge_src`]).
    #[inline]
    pub fn get_source_vertex(&self, e: EdgeId) -> VertexId {
        self.csr.edge_src(e)
    }

    /// Weight of edge `e` (`get_edge_weight(e)` in Listing 1).
    #[inline]
    pub fn get_edge_weight(&self, e: EdgeId) -> W {
        self.csr.edge_value(e)
    }
}

impl<W: EdgeValue> GraphBase for Graph<W> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }
    #[inline]
    fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }
}

impl<W: EdgeValue> OutAdjacency for Graph<W> {
    type OutIter<'a> = Copied<slice::Iter<'a, VertexId>>;
    #[inline]
    fn out_degree(&self, v: VertexId) -> usize {
        self.csr.degree(v)
    }
    #[inline]
    fn out_edges(&self, v: VertexId) -> std::ops::Range<EdgeId> {
        self.csr.edge_range(v)
    }
    #[inline]
    fn out_neighbors_from(&self, v: VertexId, skip: usize) -> Self::OutIter<'_> {
        row_from(self.csr.neighbors(v), skip)
    }
}

impl<W: EdgeValue> InAdjacency for Graph<W> {
    type InIter<'a> = Copied<slice::Iter<'a, VertexId>>;
    #[inline]
    fn in_degree(&self, v: VertexId) -> usize {
        self.require_csc().degree(v)
    }
    #[inline]
    fn in_edges(&self, v: VertexId) -> std::ops::Range<EdgeId> {
        self.require_csc().edge_range(v)
    }
    #[inline]
    fn in_neighbors_from(&self, v: VertexId, skip: usize) -> Self::InIter<'_> {
        row_from(self.require_csc().neighbors(v), skip)
    }
}

/// A row slice as a neighbor stream starting `skip` entries in (empty when
/// `skip` runs past the row).
#[inline]
fn row_from(row: &[VertexId], skip: usize) -> Copied<slice::Iter<'_, VertexId>> {
    row.get(skip..).unwrap_or_default().iter().copied()
}

impl<W: EdgeValue> OutWeights<W> for Graph<W> {
    #[inline]
    fn edge_weight(&self, e: EdgeId) -> W {
        self.csr.edge_value(e)
    }
}

impl<W: EdgeValue> InWeights<W> for Graph<W> {
    #[inline]
    fn in_edge_weight(&self, e: EdgeId) -> W {
        self.require_csc().edge_value(e)
    }
}

impl<W: EdgeValue> OutNeighbors for Graph<W> {
    #[inline]
    fn edge_dest(&self, e: EdgeId) -> VertexId {
        self.csr.edge_dest(e)
    }
    #[inline]
    fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.neighbors(v)
    }
}

impl<W: EdgeValue> InNeighbors for Graph<W> {
    #[inline]
    fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        self.require_csc().neighbors(v)
    }
}

impl<W: EdgeValue> EdgeWeights<W> for Graph<W> {
    #[inline]
    fn out_neighbor_weights(&self, v: VertexId) -> &[W] {
        self.csr.neighbor_values(v)
    }
}

impl<W: EdgeValue> InEdgeWeights<W> for Graph<W> {
    #[inline]
    fn in_neighbor_weights(&self, v: VertexId) -> &[W] {
        self.require_csc().neighbor_values(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph<f32> {
        Graph::from_coo(&Coo::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)]))
    }

    #[test]
    fn paper_api_reads_through_csr() {
        let g = triangle();
        assert_eq!(g.get_num_vertices(), 3);
        assert_eq!(g.get_num_edges(), 3);
        let e = g.get_edges(1).start;
        assert_eq!(g.get_dest_vertex(e), 2);
        assert_eq!(g.get_edge_weight(e), 2.0);
        assert_eq!(g.get_source_vertex(e), 1);
    }

    #[test]
    fn csc_is_lazy_and_idempotent() {
        let g = triangle();
        assert!(g.csc().is_none());
        let g = g.with_csc().with_csc();
        assert_eq!(g.in_neighbors(0), &[2]);
        assert_eq!(g.in_neighbor_weights(0), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "with_csc")]
    fn pull_without_csc_gives_actionable_panic() {
        triangle().in_neighbors(0);
    }

    #[test]
    fn coo_view_matches_csr_content() {
        let g = triangle().with_coo();
        let coo = g.coo().unwrap();
        assert_eq!(coo.num_edges(), 3);
        assert!(coo.iter().any(|(s, d, w)| (s, d, w) == (2, 0, 3.0)));
    }

    #[test]
    fn in_and_out_degrees_are_consistent_on_a_cycle() {
        let g = triangle().with_csc();
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 1);
            assert_eq!(g.in_degree(v), 1);
        }
    }
}
