//! Dataset I/O workflow: generate → persist (MatrixMarket, edge list,
//! binary snapshot) → reload → analyze — the round trip a user performs
//! when moving between essentials-rs and external tooling. Real
//! SuiteSparse/SNAP files drop into the same readers.
//!
//! Run: `cargo run --release --example dataset_io`

use std::io::BufReader;

use essentials::prelude::*;
use essentials_algos::{cc, pagerank};
use essentials_gen as gen;
use essentials_io as io;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("essentials_dataset_io");
    std::fs::create_dir_all(&dir)?;

    // A small-world "collaboration network" with hashed weights.
    let coo = {
        let mut c = gen::watts_strogatz(2000, 5, 0.05, 7);
        c.sort_and_dedup();
        c
    };
    let weighted = gen::hash_weights(&coo, 0.5, 3.0, 7);
    println!(
        "generated: {} vertices, {} edges",
        weighted.num_vertices(),
        weighted.num_edges()
    );

    // --- Write all three formats ----------------------------------------
    let mtx_path = dir.join("graph.mtx");
    io::write_matrix_market(std::fs::File::create(&mtx_path)?, &weighted)?;
    let el_path = dir.join("graph.txt");
    io::write_edge_list(std::fs::File::create(&el_path)?, &weighted)?;
    let bin_path = dir.join("graph.esnt");
    let csr = Csr::from_coo(&weighted);
    std::fs::write(&bin_path, io::write_binary(&csr))?;
    for p in [&mtx_path, &el_path, &bin_path] {
        println!(
            "wrote {} ({} bytes)",
            p.display(),
            std::fs::metadata(p)?.len()
        );
    }

    // --- Reload through each reader and check equivalence ----------------
    let (from_mtx, header) =
        io::read_matrix_market(BufReader::new(std::fs::File::open(&mtx_path)?))?;
    println!(
        "matrix market: {}x{} with {} entries ({:?})",
        header.rows, header.cols, header.entries, header.symmetry
    );
    let from_el = io::read_edge_list(
        BufReader::new(std::fs::File::open(&el_path)?),
        weighted.num_vertices(),
    )?;
    let from_bin = io::read_binary(&std::fs::read(&bin_path)?)?;
    assert_eq!(Csr::from_coo(&from_mtx), csr);
    assert_eq!(Csr::from_coo(&from_el), csr);
    assert_eq!(from_bin, csr);
    println!("all three readers reproduce the same CSR ✓");

    // --- Analyze the reloaded graph --------------------------------------
    let g = Graph::from_csr(from_bin).with_csc();
    let ctx = Context::default();
    let push = DirectionPolicy::fixed(Direction::Push);
    let comps = cc::cc_label_propagation(execution::par, &ctx, &g, push);
    let pr = pagerank::pagerank_pull(execution::par, &ctx, &g, pagerank::PrConfig::default());
    assert!(pagerank::verify_pagerank(&g, &pr.rank, 0.85, 1e-7));
    println!(
        "analysis: {} component(s), pagerank converged in {} iterations",
        cc::num_components(&comps.comp),
        pr.stats.iterations
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
