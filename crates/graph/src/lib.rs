//! `essentials-graph` — the graph data structure (essential component 1).
//!
//! The paper (§IV-A) exploits the graph/sparse-matrix duality *inside* the
//! native-graph approach: the underlying storage is a sparse-matrix format
//! (CSR, CSC, COO) but the API is graph-focused (Listing 1). A single
//! [`Graph`] may hold **several representations simultaneously** — the
//! paper's "variadic inheritance" — e.g. CSR for push traversal and CSC for
//! pull traversal, "at the cost of memory space".
//!
//! Layout of this crate:
//!
//! * [`types`] — vertex/edge identifier types and the edge-value trait.
//! * [`coo`] — coordinate (edge-list) storage; the builder's interchange
//!   format.
//! * [`csr`] — compressed sparse row; the push-traversal representation.
//!   CSC is the CSR of the transpose and needs no separate type.
//! * [`ccsr`] — bit-coded (delta/length-class) compressed CSR with streaming
//!   decoders: smaller edge streams for bandwidth-bound traversals and the
//!   representation the mmap-backed out-of-core loader maps from disk.
//! * [`graph`] — the multi-representation container with the Listing-1 API.
//! * [`builder`] — edge-list ingestion: dedup, self-loop removal,
//!   symmetrization, validation.
//! * [`traits`] — capability traits ([`traits::GraphBase`],
//!   [`traits::OutAdjacency`], [`traits::InAdjacency`], …) so operators run
//!   once over raw, compressed, partitioned, and subgraph representations.
//! * [`properties`] — derived structural properties (degree statistics,
//!   symmetry checks).

#![warn(missing_docs)]

pub mod builder;
pub mod ccsr;
pub mod coo;
pub mod csr;
pub mod graph;
pub mod properties;
pub mod relabel;
pub mod subgraph;
pub mod traits;
pub mod types;

pub use builder::GraphBuilder;
pub use ccsr::{Ccsr, CcsrView, CompressedGraph, CompressedGraphView, NeighborDecoder};
pub use coo::Coo;
pub use csr::Csr;
pub use graph::Graph;
pub use relabel::{relabel_by_degree, Relabeling};
pub use subgraph::{ego_network, induced_subgraph, Subgraph};
pub use traits::{
    EdgeWeights, GraphBase, InAdjacency, InEdgeWeights, InNeighbors, InWeights, OutAdjacency,
    OutNeighbors, OutWeights,
};
pub use types::{EdgeId, EdgeValue, VertexId, INVALID_VERTEX};
