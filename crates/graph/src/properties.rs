//! Derived structural properties: degree statistics, symmetry.
//!
//! Workload characterization keys on these (degree skew is what
//! separates the RMAT regime from the mesh regime).

use crate::csr::Csr;
use crate::types::{EdgeValue, VertexId};

/// Summary statistics of a degree distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest out-degree.
    pub min: usize,
    /// Largest out-degree.
    pub max: usize,
    /// Mean out-degree.
    pub mean: f64,
    /// Median out-degree.
    pub median: usize,
    /// max/mean — a cheap skew indicator (≫1 for power-law graphs,
    /// ≈1 for regular meshes).
    pub skew: f64,
}

/// Computes out-degree statistics of a CSR.
pub fn degree_stats<W: EdgeValue>(g: &Csr<W>) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            median: 0,
            skew: 0.0,
        };
    }
    let mut degs: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    degs.sort_unstable();
    let mean = g.num_edges() as f64 / n as f64;
    DegreeStats {
        min: degs[0],
        max: degs[n - 1],
        mean,
        median: degs[n / 2],
        skew: if mean > 0.0 {
            degs[n - 1] as f64 / mean
        } else {
            0.0
        },
    }
}

/// True if for every edge `u → v` the reverse `v → u` exists (structure
/// only; weights are not compared).
pub fn is_symmetric<W: EdgeValue>(g: &Csr<W>) -> bool {
    (0..g.num_vertices() as VertexId).all(|u| g.neighbors(u).iter().all(|&v| g.has_edge(v, u)))
}

/// Number of self-loop edges.
pub fn count_self_loops<W: EdgeValue>(g: &Csr<W>) -> usize {
    (0..g.num_vertices() as VertexId)
        .map(|u| g.neighbors(u).iter().filter(|&&v| v == u).count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    #[test]
    fn stats_on_a_star() {
        // 0 -> {1..=4}: hub degree 4, leaves 0.
        let g = Csr::from_coo(&Coo::from_edges(5, (1..5).map(|i| (0, i as VertexId, ()))));
        let s = degree_stats(&g);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 4);
        assert_eq!(s.mean, 0.8);
        assert_eq!(s.median, 0);
        assert!(s.skew > 4.9 && s.skew < 5.1);
    }

    #[test]
    fn stats_on_empty_graph() {
        let g = Csr::<()>::empty(0);
        let s = degree_stats(&g);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn symmetry_detection() {
        let sym = Csr::from_coo(&Coo::from_edges(2, [(0, 1, ()), (1, 0, ())]));
        let asym = Csr::from_coo(&Coo::from_edges(2, [(0, 1, ())]));
        assert!(is_symmetric(&sym));
        assert!(!is_symmetric(&asym));
    }

    #[test]
    fn self_loop_count() {
        let g = Csr::from_coo(&Coo::from_edges(3, [(0, 0, ()), (1, 2, ()), (2, 2, ())]));
        assert_eq!(count_self_loops(&g), 2);
    }
}
