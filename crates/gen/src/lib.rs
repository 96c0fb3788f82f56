//! `essentials-gen` — deterministic synthetic graph generators.
//!
//! The sandboxed reproduction has no access to SuiteSparse/SNAP datasets, so
//! every experiment runs on synthetic graphs chosen to span the two topology
//! regimes that drive the design-choice crossovers the paper's abstraction
//! targets:
//!
//! * **skewed, low-diameter** — [`rmat()`](rmat()) (Kronecker/Graph500-style) and
//!   [`barabasi_albert()`](barabasi_albert()) power-law graphs: the regime where pull traversal,
//!   dynamic scheduling, and direction optimization pay off;
//! * **uniform, high-diameter** — [`grid`] meshes and [`regular`] families:
//!   the road-network-like regime where push traversal and static
//!   scheduling win and BSP pays one barrier per long iteration;
//! * plus [`erdos_renyi`] and [`watts_strogatz()`](watts_strogatz()) in
//!   between, and [`clustered`] (caveman communities, random bipartite) for
//!   planted-structure experiments.
//!
//! All generators are seeded and reproducible: the same `(params, seed)`
//! yields the same graph on every run and platform (we rely only on
//! `rand`'s `StdRng` stability within a locked dependency set).

#![warn(missing_docs)]

pub mod barabasi_albert;
pub mod clustered;
pub mod erdos_renyi;
pub mod grid;
pub mod regular;
pub mod rmat;
pub mod watts_strogatz;
pub mod weights;

pub use barabasi_albert::barabasi_albert;
pub use clustered::{bipartite, caveman};
pub use erdos_renyi::gnm;
pub use grid::{grid2d, grid3d};
pub use regular::{binary_tree, complete, cycle, path, star};
pub use rmat::{rmat, RmatParams};
pub use watts_strogatz::watts_strogatz;
pub use weights::{hash_weights, uniform_weights, unit_weights};
