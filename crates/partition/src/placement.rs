//! Locality-aware partitioner view: vertex ranges → worker segments.
//!
//! §III-D treats a partitioned graph as "just another representation";
//! the memory-locality engine (DESIGN.md §12) needs the same idea one
//! level down — a [`Placement`] mapping contiguous vertex ranges to pool
//! workers so that the segmented dynamic schedule, the per-worker scratch
//! pools, and the blocked-gather bins all agree on where a vertex's data
//! lives. This module derives that map from graph structure (or from an
//! existing [`Partitioning`]); `essentials-parallel` consumes it.

use essentials_graph::{EdgeValue, Graph, GraphBase, OutAdjacency};
use essentials_parallel::Placement;

use crate::Partitioning;

/// An even contiguous split of `n` vertices into `workers` segments — the
/// baseline placement (identical to what the pool assumes when no
/// placement is installed).
pub fn contiguous_placement(n: usize, workers: usize) -> Placement {
    Placement::even(n, workers)
}

/// A contiguous split of the vertex space into `workers` segments whose
/// *edge* mass (out-degree sum) is balanced, so each worker's local
/// segment carries roughly the same gather work. Power-law graphs make
/// the even split badly skewed; this walks the degree prefix sum and cuts
/// at ideal boundaries (a vertex's edges never straddle a cut).
pub fn degree_balanced_placement<W: EdgeValue>(g: &Graph<W>, workers: usize) -> Placement {
    let workers = workers.max(1);
    let n = g.num_vertices();
    let total: usize = g.vertices().map(|v| g.out_degree(v)).sum();
    if total == 0 || workers == 1 {
        return Placement::even(n, workers);
    }
    let ideal = total as f64 / workers as f64;
    let mut starts = Vec::with_capacity(workers + 1);
    starts.push(0usize);
    let mut acc = 0usize;
    for v in g.vertices() {
        acc += g.out_degree(v);
        // Cut after `v` each time the running mass crosses the next ideal
        // boundary (several cuts at once when one vertex is that heavy).
        while starts.len() <= workers && acc as f64 >= ideal * starts.len() as f64 {
            starts.push((v as usize + 1).min(n));
        }
    }
    while starts.len() <= workers {
        starts.push(n);
    }
    starts[workers] = n;
    Placement::from_boundaries(starts)
}

/// The placement induced by a k-way [`Partitioning`]: worker `w`'s
/// segment length is part `w`'s size, laid out contiguously in part
/// order. Exact when the partitioning is contiguous (each part is a
/// vertex range); for scattered assignments it still preserves each
/// part's *share* of the space, which is what the segmented scheduler
/// consumes.
pub fn placement_from_partitioning(p: &Partitioning) -> Placement {
    let sizes = p.part_sizes();
    let mut starts = Vec::with_capacity(p.k + 1);
    starts.push(0usize);
    let mut acc = 0usize;
    for s in sizes {
        acc += s;
        starts.push(acc);
    }
    Placement::from_boundaries(starts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_graph::Coo;

    fn star(n: usize) -> Graph<()> {
        // Vertex 0 points at everyone: all edge mass on the first vertex.
        let mut coo = Coo::new(n);
        for v in 1..n {
            coo.push(0, v as essentials_graph::VertexId, ());
        }
        Graph::from_coo(&coo)
    }

    #[test]
    fn contiguous_matches_even_split() {
        assert_eq!(contiguous_placement(100, 4), Placement::even(100, 4));
    }

    #[test]
    fn degree_balance_isolates_heavy_vertices() {
        let g = star(1000);
        let p = degree_balanced_placement(&g, 4);
        assert_eq!(p.workers(), 4);
        assert_eq!(p.len(), 1000);
        // All edge mass sits on vertex 0, so the first segment is just the
        // hub and the remaining segments split the (edgeless) tail.
        assert_eq!(p.segment(0), 0..1);
    }

    #[test]
    fn degree_balance_on_uniform_graph_is_roughly_even() {
        let mut coo = Coo::new(64);
        for v in 0..64u32 {
            coo.push(v, (v + 1) % 64, ());
        }
        let g: Graph<()> = Graph::from_coo(&coo);
        let p = degree_balanced_placement(&g, 4);
        for w in 0..4 {
            assert_eq!(p.segment(w).len(), 16, "segment {w}");
        }
    }

    #[test]
    fn partitioning_view_preserves_part_shares() {
        let p = Partitioning::new(vec![0, 1, 0, 1, 1, 2], 3);
        let placement = placement_from_partitioning(&p);
        assert_eq!(placement.workers(), 3);
        assert_eq!(placement.segment(0).len(), 2);
        assert_eq!(placement.segment(1).len(), 3);
        assert_eq!(placement.segment(2).len(), 1);
    }
}
