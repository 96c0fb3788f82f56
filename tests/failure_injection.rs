//! Failure injection: malformed inputs must be rejected loudly at the
//! boundary (builder, readers, parameter validation), never propagated into
//! silent wrong answers.

use essentials::prelude::*;
use essentials_io as io;

// ---- graph construction ---------------------------------------------------

#[test]
#[should_panic(expected = "out of range")]
fn builder_rejects_out_of_range_endpoints() {
    let _ = GraphBuilder::<f32>::new(2).edge(0, 7, 1.0);
}

#[test]
#[should_panic(expected = "NaN")]
fn builder_rejects_nan_weights() {
    let _ = GraphBuilder::<f32>::new(2).edge(0, 1, f32::NAN);
}

#[test]
#[should_panic(expected = "row_offsets must end")]
fn raw_csr_rejects_inconsistent_offsets() {
    let _ = Csr::<f32>::from_raw(vec![0, 5], vec![0], vec![1.0]);
}

#[test]
#[should_panic(expected = "column index out of range")]
fn raw_csr_rejects_out_of_range_columns() {
    let _ = Csr::<f32>::from_raw(vec![0, 1], vec![9], vec![1.0]);
}

// ---- readers ----------------------------------------------------------

#[test]
fn matrix_market_rejects_garbage_without_panicking() {
    for bad in [
        "",                                                                // empty
        "hello world\n",                                                   // no banner
        "%%MatrixMarket matrix array real general\n2 2 4\n",               // array format
        "%%MatrixMarket matrix coordinate real general\n2\n",              // bad size line
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n", // 0-based index
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 nan\n", // NaN
        "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 2 1.0\n", // count mismatch
    ] {
        assert!(
            io::read_matrix_market(bad.as_bytes()).is_err(),
            "accepted: {bad:?}"
        );
    }
}

#[test]
fn edge_list_rejects_garbage_without_panicking() {
    for bad in ["0\n", "a b\n", "0 1 notaweight\n", "0 1 nan\n"] {
        assert!(
            io::read_edge_list(bad.as_bytes(), 0).is_err(),
            "accepted: {bad:?}"
        );
    }
}

#[test]
fn binary_reader_survives_bit_flips() {
    // Flip every byte of a valid snapshot one at a time: the reader must
    // either error out or return a graph that passes validation — it must
    // never panic. (Value bytes may legitimately decode to different
    // weights; structural bytes must be caught.)
    let coo = Coo::from_edges(4, [(0, 1, 1.0f32), (2, 3, 2.0), (1, 2, 0.5)]);
    let bytes = io::write_binary(&Csr::from_coo(&coo)).to_vec();
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0xFF;
        let outcome = std::panic::catch_unwind(|| io::read_binary(&corrupted));
        let result = outcome.unwrap_or_else(|_| panic!("panicked on flipped byte {i}"));
        if let Ok(g) = result {
            // Anything that parses must be structurally sound.
            assert!(g.row_offsets().windows(2).all(|w| w[0] <= w[1]));
            assert!(g
                .column_indices()
                .iter()
                .all(|&c| (c as usize) < g.num_vertices()));
        }
    }
}

// ---- algorithm parameter validation ------------------------------------

#[test]
#[should_panic(expected = "delta must be positive")]
fn delta_stepping_rejects_nonpositive_delta() {
    let g = Graph::from_coo(&Coo::from_edges(2, [(0, 1, 1.0f32)]));
    essentials_algos::sssp::delta_stepping(execution::seq, &Context::sequential(), &g, 0, 0.0);
}

#[test]
#[should_panic(expected = "dimension mismatch")]
fn spmv_rejects_wrong_vector_length() {
    let g = Graph::<f32>::from_coo(&Coo::new(3));
    essentials_algos::spmv::spmv(execution::seq, &Context::sequential(), &g, &[1.0]);
}

#[test]
#[should_panic(expected = "at least one seed")]
fn ppr_rejects_empty_seed_set() {
    let g = Graph::<()>::from_coo(&Coo::from_edges(2, [(0, 1, ())])).with_csc();
    essentials_algos::pagerank::personalized_pagerank(
        execution::seq,
        &Context::sequential(),
        &g,
        &[],
        essentials_algos::pagerank::PrConfig::default(),
    );
}

// ---- out-of-bounds sources ----------------------------------------------

#[test]
fn algorithms_panic_rather_than_wrap_on_bad_source() {
    let g = Graph::from_coo(&Coo::from_edges(2, [(0, 1, 1.0f32)]));
    let ctx = Context::sequential();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let push = DirectionPolicy::fixed(Direction::Push);
        essentials_algos::sssp::sssp(execution::seq, &ctx, &g, 99, push)
    }));
    assert!(r.is_err(), "out-of-range source must not return quietly");
}
