//! Recursive-MATrix (R-MAT) / Kronecker generator — the Graph500 workload.
//!
//! Each edge picks its endpoints by descending a 2×2 probability quadrant
//! `scale` times. With the classic `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`
//! this yields the skewed, power-law-ish degree distribution that stresses
//! load balancing and makes BFS develop the dense middle phase that
//! direction-optimizing traversal exploits.

use essentials_graph::{Coo, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Quadrant probabilities of the recursive descent. Must sum to ~1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatParams {
    /// Probability of the top-left quadrant (both halves low).
    pub a: f64,
    /// Top-right.
    pub b: f64,
    /// Bottom-left.
    pub c: f64,
    /// Bottom-right.
    pub d: f64,
    /// Per-level multiplicative noise on the quadrant probabilities,
    /// breaking up the exact-Kronecker degree staircase (0 disables).
    pub noise: f64,
}

impl Default for RmatParams {
    /// Graph500 parameters.
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            noise: 0.1,
        }
    }
}

/// Generates `edge_factor * 2^scale` edges over `2^scale` vertices.
///
/// Self-loops and duplicates are possible, as in Graph500; normalize with
/// [`essentials_graph::GraphBuilder`] when an experiment needs a simple
/// graph.
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> Coo<()> {
    assert!(scale < 32, "scale must fit VertexId");
    let total = params.a + params.b + params.c + params.d;
    assert!(
        (total - 1.0).abs() < 1e-6,
        "RMAT quadrant probabilities must sum to 1 (got {total})"
    );
    let n = 1usize << scale;
    let m = edge_factor * n;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n);
    for _ in 0..m {
        let (mut lo_s, mut lo_d) = (0usize, 0usize);
        let mut half = n >> 1;
        while half > 0 {
            // Optionally perturb quadrant probabilities per level.
            let jitter = |p: f64, rng: &mut StdRng| {
                if params.noise > 0.0 {
                    p * (1.0 - params.noise + 2.0 * params.noise * rng.gen::<f64>())
                } else {
                    p
                }
            };
            let a = jitter(params.a, &mut rng);
            let b = jitter(params.b, &mut rng);
            let c = jitter(params.c, &mut rng);
            let d = jitter(params.d, &mut rng);
            let r = rng.gen::<f64>() * (a + b + c + d);
            if r < a {
                // top-left: neither bit set
            } else if r < a + b {
                lo_d += half;
            } else if r < a + b + c {
                lo_s += half;
            } else {
                lo_s += half;
                lo_d += half;
            }
            half >>= 1;
        }
        coo.push(lo_s as VertexId, lo_d as VertexId, ());
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_graph::Csr;

    #[test]
    fn shape_is_as_requested() {
        let g = rmat(8, 16, RmatParams::default(), 1);
        assert_eq!(g.num_vertices(), 256);
        assert_eq!(g.num_edges(), 16 * 256);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = rmat(7, 8, RmatParams::default(), 42);
        let b = rmat(7, 8, RmatParams::default(), 42);
        assert_eq!(a, b);
        let c = rmat(7, 8, RmatParams::default(), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn default_params_produce_degree_skew() {
        let coo = rmat(10, 16, RmatParams::default(), 7);
        let csr = Csr::from_coo(&coo);
        let stats = essentials_graph::properties::degree_stats(&csr);
        // Power-law-ish: the max degree dwarfs the mean. Uniform graphs
        // have skew ≈ 2-3; RMAT at this scale is reliably > 10.
        assert!(stats.skew > 10.0, "expected skewed degrees, got {stats:?}");
    }

    #[test]
    fn uniform_quadrants_are_not_skewed() {
        let params = RmatParams {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
            noise: 0.0,
        };
        let csr = Csr::from_coo(&rmat(10, 16, params, 7));
        let stats = essentials_graph::properties::degree_stats(&csr);
        assert!(
            stats.skew < 4.0,
            "uniform RMAT should be ER-like, got {stats:?}"
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_probabilities() {
        rmat(
            4,
            1,
            RmatParams {
                a: 0.9,
                b: 0.9,
                c: 0.0,
                d: 0.0,
                noise: 0.0,
            },
            1,
        );
    }
}
