//! Diameter and eccentricity estimation on unweighted graphs.
//!
//! Exact diameters need all-pairs BFS; the standard estimator is the
//! *double sweep*: BFS from any vertex, then BFS again from the farthest
//! vertex found — the second eccentricity is a lower bound that is exact on
//! trees and empirically tight on most real graphs. [`diameter_multi_sweep`]
//! iterates the idea from several periphery vertices for a tighter bound.
//! Composed entirely from the BFS building block.

use essentials_core::prelude::*;

use crate::bfs::{bfs, UNVISITED};

/// Result of a diameter estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiameterEstimate {
    /// Lower bound on the diameter (exact on trees; exact whenever
    /// `sweeps` saturates the periphery).
    pub diameter_lower_bound: u32,
    /// Endpoints of the longest shortest path found.
    pub endpoints: (VertexId, VertexId),
    /// BFS sweeps performed.
    pub sweeps: usize,
}

/// Farthest visited vertex and its level from a BFS result.
fn farthest(level: &[u32]) -> Option<(VertexId, u32)> {
    level
        .iter()
        .enumerate()
        .filter(|(_, &l)| l != UNVISITED)
        .max_by_key(|(_, &l)| l)
        .map(|(v, &l)| (v as VertexId, l))
}

/// Classic double sweep from `start` (2 BFS runs).
pub fn diameter_double_sweep<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    start: VertexId,
) -> DiameterEstimate {
    // Push sweeps: they need only the CSR.
    let push = DirectionPolicy::fixed(Direction::Push);
    let first = bfs(policy, ctx, g, start, push);
    let Some((a, _)) = farthest(&first.level) else {
        return DiameterEstimate {
            diameter_lower_bound: 0,
            endpoints: (start, start),
            sweeps: 1,
        };
    };
    let second = bfs(policy, ctx, g, a, push);
    let (b, ecc) = farthest(&second.level).unwrap_or((a, 0));
    DiameterEstimate {
        diameter_lower_bound: ecc,
        endpoints: (a, b),
        sweeps: 2,
    }
}

/// Iterated double sweep: keeps sweeping from the newest far endpoint until
/// the bound stops improving or `max_sweeps` is reached.
pub fn diameter_multi_sweep<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    start: VertexId,
    max_sweeps: usize,
) -> DiameterEstimate {
    let mut best = DiameterEstimate {
        diameter_lower_bound: 0,
        endpoints: (start, start),
        sweeps: 0,
    };
    let mut from = start;
    let push = DirectionPolicy::fixed(Direction::Push);
    for sweep in 1..=max_sweeps.max(1) {
        let r = bfs(policy, ctx, g, from, push);
        let Some((far, ecc)) = farthest(&r.level) else {
            best.sweeps = sweep;
            break;
        };
        best.sweeps = sweep;
        if ecc > best.diameter_lower_bound {
            best.diameter_lower_bound = ecc;
            best.endpoints = (from, far);
            from = far;
        } else {
            break; // no improvement: the sweep has converged
        }
    }
    best
}

/// Exact eccentricity of one vertex (its BFS depth over reachable
/// vertices).
pub fn eccentricity<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    v: VertexId,
) -> u32 {
    let push = DirectionPolicy::fixed(Direction::Push);
    farthest(&bfs(policy, ctx, g, v, push).level).map_or(0, |(_, e)| e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_gen as gen;

    fn und(coo: essentials_graph::Coo<()>) -> Graph<()> {
        GraphBuilder::from_coo(coo)
            .symmetrize()
            .deduplicate()
            .build()
    }

    #[test]
    fn exact_on_paths() {
        let g = und(gen::path(40));
        let ctx = Context::new(2);
        // Double sweep from the middle still finds the true diameter.
        let d = diameter_double_sweep(execution::par, &ctx, &g, 20);
        assert_eq!(d.diameter_lower_bound, 39);
        let (a, b) = d.endpoints;
        assert!((a == 0 && b == 39) || (a == 39 && b == 0));
    }

    #[test]
    fn exact_on_grids() {
        // Diameter of an r×c grid is (r-1)+(c-1).
        let g = und(gen::grid2d(7, 11));
        let ctx = Context::new(2);
        let d = diameter_multi_sweep(execution::par, &ctx, &g, 40, 8);
        assert_eq!(d.diameter_lower_bound, 6 + 10);
    }

    #[test]
    fn star_diameter_is_two() {
        let g = und(gen::star(50));
        let ctx = Context::new(2);
        // Starting at the hub, the first sweep sees ecc 1; the second finds 2.
        let d = diameter_double_sweep(execution::par, &ctx, &g, 0);
        assert_eq!(d.diameter_lower_bound, 2);
    }

    #[test]
    fn eccentricity_of_path_endpoints_and_center() {
        let g = und(gen::path(9));
        let ctx = Context::sequential();
        assert_eq!(eccentricity(execution::seq, &ctx, &g, 0), 8);
        assert_eq!(eccentricity(execution::seq, &ctx, &g, 4), 4);
    }

    #[test]
    fn isolated_vertex_has_zero_bound() {
        let g = Graph::<()>::from_coo(&Coo::new(3));
        let ctx = Context::sequential();
        let d = diameter_double_sweep(execution::seq, &ctx, &g, 1);
        assert_eq!(d.diameter_lower_bound, 0);
    }

    #[test]
    fn multi_sweep_never_worse_than_double_sweep() {
        let ctx = Context::new(2);
        for seed in [1, 5] {
            let g = und(gen::gnm(150, 450, seed));
            let d2 = diameter_double_sweep(execution::par, &ctx, &g, 0);
            let dm = diameter_multi_sweep(execution::par, &ctx, &g, 0, 6);
            assert!(dm.diameter_lower_bound >= d2.diameter_lower_bound);
        }
    }
}
