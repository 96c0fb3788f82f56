//! Lattice meshes: the high-diameter, uniform-degree regime (road-network
//! proxy). Diameter of `grid2d(k)` is `2(k-1)` — BFS/SSSP run thousands of
//! sparse iterations, the worst case for per-iteration barrier overhead and
//! the best case for push traversal.

use essentials_graph::{Coo, VertexId};

/// 4-connected `rows × cols` lattice with edges in both directions.
pub fn grid2d(rows: usize, cols: usize) -> Coo<()> {
    let n = rows * cols;
    let mut coo = Coo::new(n);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                coo.push(id(r, c), id(r, c + 1), ());
                coo.push(id(r, c + 1), id(r, c), ());
            }
            if r + 1 < rows {
                coo.push(id(r, c), id(r + 1, c), ());
                coo.push(id(r + 1, c), id(r, c), ());
            }
        }
    }
    coo
}

/// 6-connected `x × y × z` lattice with edges in both directions.
pub fn grid3d(x: usize, y: usize, z: usize) -> Coo<()> {
    let n = x * y * z;
    let mut coo = Coo::new(n);
    let id = |i: usize, j: usize, k: usize| (i * y * z + j * z + k) as VertexId;
    for i in 0..x {
        for j in 0..y {
            for k in 0..z {
                if i + 1 < x {
                    coo.push(id(i, j, k), id(i + 1, j, k), ());
                    coo.push(id(i + 1, j, k), id(i, j, k), ());
                }
                if j + 1 < y {
                    coo.push(id(i, j, k), id(i, j + 1, k), ());
                    coo.push(id(i, j + 1, k), id(i, j, k), ());
                }
                if k + 1 < z {
                    coo.push(id(i, j, k), id(i, j, k + 1), ());
                    coo.push(id(i, j, k + 1), id(i, j, k), ());
                }
            }
        }
    }
    coo
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_graph::properties::is_symmetric;
    use essentials_graph::Csr;

    #[test]
    fn grid2d_edge_count() {
        // rows*(cols-1) + cols*(rows-1) undirected edges, ×2 directed.
        let g = grid2d(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 2 * (3 * 3 + 4 * 2));
    }

    #[test]
    fn grid2d_is_symmetric_with_max_degree_4() {
        let csr = Csr::from_coo(&grid2d(5, 5));
        assert!(is_symmetric(&csr));
        let stats = essentials_graph::properties::degree_stats(&csr);
        assert_eq!(stats.max, 4);
        assert_eq!(stats.min, 2);
    }

    #[test]
    fn grid3d_interior_degree_is_6() {
        let csr = Csr::from_coo(&grid3d(3, 3, 3));
        // Center vertex (1,1,1) = 1*9 + 1*3 + 1 = 13.
        assert_eq!(csr.degree(13), 6);
        assert!(is_symmetric(&csr));
    }

    #[test]
    fn degenerate_grids() {
        assert_eq!(grid2d(1, 1).num_edges(), 0);
        assert_eq!(grid2d(1, 5).num_edges(), 8); // a path
        assert_eq!(grid3d(1, 1, 4).num_edges(), 6);
    }
}
