//! Closeness and harmonic centrality over unweighted graphs.
//!
//! Composed entirely from the BFS building block: one traversal per
//! source, parallelism inside each traversal (the same structure as
//! Brandes BC). Harmonic centrality — `h(v) = Σ 1/d(v,u)` — handles
//! disconnected graphs gracefully (unreachable pairs contribute 0), which
//! is why it is reported beside classic closeness.

use essentials_core::prelude::*;

use crate::bfs::{bfs, UNVISITED};

/// Centrality scores for the requested sources.
#[derive(Debug, Clone)]
pub struct ClosenessResult {
    /// Classic closeness: `(r-1) / Σ d` where `r` = reachable count
    /// (0 when nothing is reachable).
    pub closeness: Vec<f64>,
    /// Harmonic: `Σ 1/d` over reachable vertices.
    pub harmonic: Vec<f64>,
    /// Vertices whose scores were computed.
    pub sources: Vec<VertexId>,
}

/// Computes both centralities for each vertex in `sources` (pass all
/// vertices for exact centrality; a sample for the usual approximation).
pub fn closeness<P: ExecutionPolicy, W: EdgeValue>(
    policy: P,
    ctx: &Context,
    g: &Graph<W>,
    sources: &[VertexId],
) -> ClosenessResult {
    let mut result = ClosenessResult {
        closeness: Vec::with_capacity(sources.len()),
        harmonic: Vec::with_capacity(sources.len()),
        sources: sources.to_vec(),
    };
    for &s in sources {
        let r = bfs(policy, ctx, g, s, DirectionPolicy::fixed(Direction::Push));
        let mut sum = 0u64;
        let mut inv_sum = 0.0f64;
        let mut reachable = 0u64;
        for (v, &l) in r.level.iter().enumerate() {
            if l == UNVISITED || v == s as usize {
                continue;
            }
            reachable += 1;
            sum += l as u64;
            inv_sum += 1.0 / l as f64;
        }
        result.closeness.push(if sum == 0 {
            0.0
        } else {
            reachable as f64 / sum as f64
        });
        result.harmonic.push(inv_sum);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_gen as gen;

    #[test]
    fn star_hub_has_maximal_centrality() {
        let g = Graph::from_coo(&gen::star(9));
        let ctx = Context::new(2);
        let sources: Vec<VertexId> = g.vertices().collect();
        let r = closeness(execution::par, &ctx, &g, &sources);
        // Hub: all 8 leaves at distance 1 → closeness 1, harmonic 8.
        assert!((r.closeness[0] - 1.0).abs() < 1e-12);
        assert!((r.harmonic[0] - 8.0).abs() < 1e-12);
        // Leaf: hub at 1, 7 leaves at 2 → closeness 8/15.
        assert!((r.closeness[1] - 8.0 / 15.0).abs() < 1e-12);
        assert!((r.harmonic[1] - (1.0 + 7.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn path_centrality_peaks_at_the_center() {
        let g = GraphBuilder::from_coo(gen::path(9))
            .symmetrize()
            .deduplicate()
            .build();
        let sources: Vec<VertexId> = g.vertices().collect();
        let ctx = Context::new(2);
        let r = closeness(execution::par, &ctx, &g, &sources);
        let center = 4usize;
        for v in 0..9 {
            if v != center {
                assert!(r.closeness[center] >= r.closeness[v]);
                assert!(r.harmonic[center] >= r.harmonic[v]);
            }
        }
    }

    #[test]
    fn disconnected_vertices_score_zero() {
        let g = Graph::<()>::from_coo(&Coo::new(3));
        let ctx = Context::sequential();
        let r = closeness(execution::seq, &ctx, &g, &[0, 1, 2]);
        assert_eq!(r.closeness, vec![0.0; 3]);
        assert_eq!(r.harmonic, vec![0.0; 3]);
    }

    #[test]
    fn policy_equivalence() {
        let g = GraphBuilder::from_coo(gen::gnm(120, 600, 4))
            .symmetrize()
            .deduplicate()
            .build();
        let ctx = Context::new(4);
        let sources: Vec<VertexId> = (0..20).collect();
        let a = closeness(execution::seq, &ctx, &g, &sources);
        let b = closeness(execution::par, &ctx, &g, &sources);
        assert_eq!(a.closeness, b.closeness);
        assert_eq!(a.harmonic, b.harmonic);
    }
}
