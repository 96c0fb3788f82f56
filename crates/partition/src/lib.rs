//! `essentials-partition` — partitioning heuristics (TLAV pillar 4).
//!
//! §III-D of the paper leaves partitioning "largely unexplored … work in
//! progress", but specifies the architecture: a partitioned graph is *just
//! another underlying representation*, and top-level graph queries delegate
//! to the owning sub-graph. This crate supplies:
//!
//! * [`random`] — random and contiguous (chunked) assignments, the
//!   baselines Table I lists under "Heuristics";
//! * [`multilevel`] — a from-scratch METIS-family multilevel partitioner
//!   (heavy-edge-matching coarsening → greedy region growing → boundary
//!   refinement), standing in for the METIS dependency \[7\];
//! * [`metrics`] — edge-cut and balance, the quantities `tests/pipeline.rs`
//!   compares across partitioners;
//! * [`partitioned_graph`] — the delegating representation of §III-D,
//!   implementing the same graph traits as `essentials_graph::Graph` and
//!   feeding `essentials-mp`'s ranks.

#![warn(missing_docs)]

pub mod metrics;
pub mod multilevel;
pub mod partitioned_graph;
pub mod random;

pub use metrics::{balance, edge_cut};
pub use multilevel::{multilevel_partition, MultilevelConfig};
pub use partitioned_graph::PartitionedGraph;
pub use random::{contiguous_partition, random_partition};

/// A k-way assignment of vertices to parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    /// `assignment[v]` = part id in `0..k`.
    pub assignment: Vec<u32>,
    /// Number of parts.
    pub k: usize,
}

impl Partitioning {
    /// Validates and wraps an assignment vector.
    pub fn new(assignment: Vec<u32>, k: usize) -> Self {
        assert!(k >= 1, "need at least one part");
        assert!(
            assignment.iter().all(|&p| (p as usize) < k),
            "assignment references a part >= k"
        );
        Partitioning { assignment, k }
    }

    /// Number of vertices in each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Vertices of one part, ascending.
    pub fn members(&self, part: u32) -> Vec<essentials_graph::VertexId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == part)
            .map(|(v, _)| v as essentials_graph::VertexId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_sizes_and_members() {
        let p = Partitioning::new(vec![0, 1, 0, 1, 1], 2);
        assert_eq!(p.part_sizes(), vec![2, 3]);
        assert_eq!(p.members(0), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "part >= k")]
    fn rejects_out_of_range_assignment() {
        Partitioning::new(vec![0, 2], 2);
    }
}
