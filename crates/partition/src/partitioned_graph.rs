//! The partitioned graph as "just another underlying representation"
//! (§III-D): top-level queries delegate to the owning sub-graph.
//!
//! Each part stores the CSR rows of the vertices it owns (columns keep
//! global ids). [`PartitionedGraph`] implements the same traits as
//! `essentials_graph::Graph`, so every operator and algorithm in the
//! workspace runs on it unchanged — queries are simply routed through the
//! ownership table to the sub-graph, exactly the delegation the paper
//! describes. `essentials-mp` builds its ranks from the same parts: a rank
//! is a logical partition whose vertex programs run as one chunk of the
//! context's thread pool, not an OS thread of its own.

use essentials_graph::{
    EdgeId, EdgeValue, EdgeWeights, GraphBase, OutAdjacency, OutNeighbors, OutWeights, VertexId,
};

use crate::Partitioning;

/// One part's slice of the graph: the rows of its owned vertices.
pub struct Part<W: EdgeValue> {
    /// Owned vertices (ascending global ids).
    pub owned: Vec<VertexId>,
    /// Local CSR offsets over `owned` (len = owned.len() + 1).
    pub offsets: Vec<usize>,
    /// Destinations in **global** ids.
    pub cols: Vec<VertexId>,
    /// Edge weights aligned with `cols`.
    pub vals: Vec<W>,
    /// First global edge id of this part (parts own contiguous edge-id
    /// ranges so the partitioned graph exposes a consistent numbering).
    pub edge_base: EdgeId,
}

impl<W: EdgeValue> Part<W> {
    /// Number of edges owned by this part.
    pub fn num_edges(&self) -> usize {
        self.cols.len()
    }
}

/// A graph stored as `k` per-part sub-graphs plus an ownership table.
pub struct PartitionedGraph<W: EdgeValue = f32> {
    n: usize,
    m: usize,
    /// `owner[v]` = part id.
    owner: Vec<u32>,
    /// `local[v]` = index of v within its owner's `owned` list.
    local: Vec<u32>,
    parts: Vec<Part<W>>,
}

impl<W: EdgeValue> PartitionedGraph<W> {
    /// Splits `g` according to `p`. Edge ids are renumbered part-major (all
    /// of part 0's edges, then part 1's, …).
    pub fn build<G: EdgeWeights<W>>(g: &G, p: &Partitioning) -> Self {
        let n = g.num_vertices();
        assert_eq!(p.assignment.len(), n);
        let mut parts: Vec<Part<W>> = (0..p.k)
            .map(|_| Part {
                owned: Vec::new(),
                offsets: vec![0],
                cols: Vec::new(),
                vals: Vec::new(),
                edge_base: 0,
            })
            .collect();
        let mut local = vec![0u32; n];
        for v in g.vertices() {
            let part = &mut parts[p.assignment[v as usize] as usize];
            local[v as usize] = part.owned.len() as u32;
            part.owned.push(v);
            for e in g.out_edges(v) {
                part.cols.push(g.edge_dest(e));
                part.vals.push(g.edge_weight(e));
            }
            part.offsets.push(part.cols.len());
        }
        let mut base = 0;
        for part in &mut parts {
            part.edge_base = base;
            base += part.num_edges();
        }
        PartitionedGraph {
            n,
            m: base,
            owner: p.assignment.clone(),
            local,
            parts,
        }
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Owning part of a vertex.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> u32 {
        self.owner[v as usize]
    }

    /// Index of `v` within its owner's [`Part::owned`] list (the local row
    /// of its out-edges).
    #[inline]
    pub fn local_index(&self, v: VertexId) -> usize {
        self.local[v as usize] as usize
    }

    /// The sub-graph of one part.
    pub fn part(&self, k: usize) -> &Part<W> {
        &self.parts[k]
    }

    /// Count of edges whose endpoints live in different parts — the
    /// communication volume a message-passing run will see.
    pub fn remote_edges(&self) -> usize {
        let mut cnt = 0;
        for (pi, part) in self.parts.iter().enumerate() {
            cnt += part
                .cols
                .iter()
                .filter(|&&d| self.owner[d as usize] as usize != pi)
                .count();
        }
        cnt
    }

    #[inline]
    fn locate(&self, v: VertexId) -> (&Part<W>, usize) {
        (
            &self.parts[self.owner[v as usize] as usize],
            self.local_index(v),
        )
    }

    /// Resolves a global edge id to its owning part and local offset.
    fn locate_edge(&self, e: EdgeId) -> (&Part<W>, usize) {
        debug_assert!(e < self.m);
        let pi = self
            .parts
            .partition_point(|p| p.edge_base <= e)
            .saturating_sub(1);
        let part = &self.parts[pi];
        (part, e - part.edge_base)
    }
}

impl<W: EdgeValue> GraphBase for PartitionedGraph<W> {
    fn num_vertices(&self) -> usize {
        self.n
    }
    fn num_edges(&self) -> usize {
        self.m
    }
}

impl<W: EdgeValue> OutAdjacency for PartitionedGraph<W> {
    type OutIter<'a> = std::iter::Copied<std::slice::Iter<'a, VertexId>>;
    fn out_degree(&self, v: VertexId) -> usize {
        let (part, i) = self.locate(v);
        part.offsets[i + 1] - part.offsets[i]
    }
    fn out_edges(&self, v: VertexId) -> std::ops::Range<EdgeId> {
        let (part, i) = self.locate(v);
        part.edge_base + part.offsets[i]..part.edge_base + part.offsets[i + 1]
    }
    fn out_neighbors_from(&self, v: VertexId) -> Self::OutIter<'_> {
        self.out_neighbors(v).iter().copied()
    }
}

impl<W: EdgeValue> OutNeighbors for PartitionedGraph<W> {
    fn edge_dest(&self, e: EdgeId) -> VertexId {
        let (part, off) = self.locate_edge(e);
        part.cols[off]
    }
    fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (part, i) = self.locate(v);
        &part.cols[part.offsets[i]..part.offsets[i + 1]]
    }
}

impl<W: EdgeValue> OutWeights<W> for PartitionedGraph<W> {
    fn edge_weight(&self, e: EdgeId) -> W {
        let (part, off) = self.locate_edge(e);
        part.vals[off]
    }
}

impl<W: EdgeValue> EdgeWeights<W> for PartitionedGraph<W> {
    fn out_neighbor_weights(&self, v: VertexId) -> &[W] {
        let (part, i) = self.locate(v);
        &part.vals[part.offsets[i]..part.offsets[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_partition;
    use essentials_gen as gen;
    use essentials_graph::Graph;

    fn graph() -> Graph<f32> {
        let coo = gen::gnm(60, 400, 4);
        Graph::from_coo(&gen::uniform_weights(&coo, 0.1, 2.0, 1))
    }

    #[test]
    fn queries_match_the_flat_graph() {
        let g = graph();
        let p = random_partition(g.get_num_vertices(), 3, 7);
        let pg = PartitionedGraph::build(&g, &p);
        assert_eq!(pg.num_vertices(), g.num_vertices());
        assert_eq!(pg.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(pg.out_degree(v), g.out_degree(v));
            assert_eq!(pg.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(pg.out_neighbor_weights(v), g.out_neighbor_weights(v));
            // Edge-id-level queries route correctly too.
            for e in pg.out_edges(v) {
                assert!(pg.out_neighbors(v).contains(&pg.edge_dest(e)));
            }
        }
    }

    #[test]
    fn algorithms_run_unchanged_on_the_partitioned_representation() {
        // BFS via the trait-generic operator path: neighbors_expand works on
        // any EdgeWeights graph, so a quick reachability check suffices.
        use essentials_core::prelude::*;
        let g = graph();
        let p = random_partition(g.get_num_vertices(), 4, 3);
        let pg = PartitionedGraph::build(&g, &p);
        let ctx = Context::new(2);
        let f = SparseFrontier::single(0);
        let mut a = neighbors_expand(execution::par, &ctx, &g, &f, |_, _, _, _| true);
        let mut b = neighbors_expand(execution::par, &ctx, &pg, &f, |_, _, _, _| true);
        a.uniquify();
        b.uniquify();
        assert_eq!(a, b);
    }

    #[test]
    fn remote_edges_zero_for_single_part() {
        let g = graph();
        let p = Partitioning::new(vec![0; g.get_num_vertices()], 1);
        let pg = PartitionedGraph::build(&g, &p);
        assert_eq!(pg.remote_edges(), 0);
    }

    #[test]
    fn remote_edges_track_edge_cut() {
        let g = graph();
        let p = random_partition(g.get_num_vertices(), 4, 9);
        let pg = PartitionedGraph::build(&g, &p);
        assert_eq!(pg.remote_edges(), crate::metrics::edge_cut(&g, &p));
    }

    #[test]
    fn empty_parts_are_fine() {
        let g = graph();
        // Everything in part 0 of 3.
        let p = Partitioning::new(vec![0; g.get_num_vertices()], 3);
        let pg = PartitionedGraph::build(&g, &p);
        assert_eq!(pg.part(1).owned.len(), 0);
        assert_eq!(pg.out_degree(5), g.out_degree(5));
    }
}
