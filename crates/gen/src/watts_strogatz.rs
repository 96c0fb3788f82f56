//! Watts–Strogatz small-world graphs: a ring lattice with random rewiring —
//! interpolates between the mesh regime (β = 0) and the random regime
//! (β = 1), giving partitioning a locality knob.

use essentials_graph::{Coo, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ring of `n` vertices, each connected to its `k` nearest clockwise
/// neighbors (so undirected degree `2k` before rewiring); every clockwise
/// edge is rewired to a random target with probability `beta`. Both
/// directions of each (possibly rewired) edge are emitted.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Coo<()> {
    assert!(n > 2 * k, "ring needs n > 2k (n={n}, k={k})");
    assert!((0.0..=1.0).contains(&beta), "beta must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n);
    for v in 0..n {
        for j in 1..=k {
            let mut target = (v + j) % n;
            if rng.gen::<f64>() < beta {
                // Rewire to a uniform non-self target.
                let mut t = rng.gen_range(0..n - 1);
                if t >= v {
                    t += 1;
                }
                target = t;
            }
            coo.push(v as VertexId, target as VertexId, ());
            coo.push(target as VertexId, v as VertexId, ());
        }
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_graph::Csr;

    #[test]
    fn beta_zero_is_the_exact_ring_lattice() {
        let g = watts_strogatz(20, 2, 0.0, 1);
        assert_eq!(g.num_edges(), 20 * 2 * 2);
        let csr = Csr::from_coo(&g);
        // Every vertex sees v±1, v±2.
        assert_eq!(csr.neighbors(0), &[1, 2, 18, 19]);
    }

    #[test]
    fn beta_one_still_has_right_edge_count_and_no_loops() {
        let g = watts_strogatz(50, 3, 1.0, 2);
        assert_eq!(g.num_edges(), 50 * 3 * 2);
        assert!(g.iter().all(|(s, d, _)| s != d));
    }

    #[test]
    fn deterministic() {
        assert_eq!(watts_strogatz(30, 2, 0.3, 5), watts_strogatz(30, 2, 0.3, 5));
    }

    #[test]
    #[should_panic(expected = "n > 2k")]
    fn rejects_too_dense_ring() {
        watts_strogatz(4, 2, 0.0, 0);
    }
}
