//! Ablations of individual design choices inside the abstraction —
//! the knobs DESIGN.md's inventory calls out, measured in isolation:
//! frontier-pipeline collector and dedup strategies, uniquify strategies,
//! frontier conversions, loop schedules, adjacency intersection kernels,
//! degree-scan parallelism, and representation build costs.

use criterion::{criterion_group, criterion_main, Criterion};
use essentials_bench::Workload;
use essentials_core::operators::filter::{uniquify, uniquify_with_bitmap};
use essentials_core::operators::intersect::{intersect_count, intersect_count_gallop};
use essentials_core::prelude::*;
use essentials_frontier::convert;
use essentials_parallel::{parallel_scan, serial_scan};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));

    let ctx = Context::new(2);
    let n = 1 << 14;

    // --- uniquify: sort-based vs bitmap-based, at two duplicate rates ----
    for (label, dup_factor) in [("low_dup", 1usize), ("high_dup", 16)] {
        let ids: Vec<VertexId> = (0..(n / 4) * dup_factor)
            .map(|i| ((i * 2654435761) % n) as VertexId)
            .collect();
        let f = SparseFrontier::from_vec(ids);
        group.bench_function(format!("uniquify_sort/{label}"), |b| {
            b.iter(|| uniquify(execution::seq, &ctx, &f))
        });
        group.bench_function(format!("uniquify_bitmap/{label}"), |b| {
            b.iter(|| uniquify_with_bitmap(execution::par, &ctx, &f, n))
        });
    }

    // --- frontier conversions (the direction-optimizing switch cost) -----
    for density_pct in [1usize, 25, 75] {
        let ids: Vec<VertexId> = (0..n)
            .filter(|i| (i * 37) % 100 < density_pct)
            .map(|i| i as VertexId)
            .collect();
        let sparse = SparseFrontier::from_vec(ids);
        let dense = convert::sparse_to_dense(&sparse, n);
        group.bench_function(format!("sparse_to_dense/{density_pct}pct"), |b| {
            b.iter(|| convert::sparse_to_dense(&sparse, n))
        });
        group.bench_function(format!("dense_to_sparse/{density_pct}pct"), |b| {
            b.iter(|| convert::dense_to_sparse(&dense))
        });
    }

    // --- schedules on skewed per-index work --------------------------------
    let g = Workload::Rmat.directed(10);
    for (name, schedule) in [
        ("static", Schedule::Static),
        ("dynamic_64", Schedule::Dynamic(64)),
        ("dynamic_1024", Schedule::Dynamic(1024)),
        ("guided_64", Schedule::Guided(64)),
    ] {
        group.bench_function(format!("schedule/{name}"), |b| {
            b.iter(|| {
                let acc = std::sync::atomic::AtomicUsize::new(0);
                ctx.pool()
                    .parallel_for(0..g.get_num_vertices(), schedule, |i| {
                        // Per-vertex work proportional to degree (skewed).
                        let mut s = 0usize;
                        for &d in g.out_neighbors(i as VertexId) {
                            s = s.wrapping_add(d as usize);
                        }
                        acc.fetch_add(s & 7, std::sync::atomic::Ordering::Relaxed);
                    });
                acc.into_inner()
            })
        });
    }

    // --- intersection kernels: balanced vs skewed list sizes -------------
    let a: Vec<VertexId> = (0..4096).map(|i| i * 3).collect();
    let b_: Vec<VertexId> = (0..4096).map(|i| i * 5).collect();
    let tiny: Vec<VertexId> = (0..32).map(|i| i * 391).collect();
    group.bench_function("intersect_merge/balanced", |bch| {
        bch.iter(|| intersect_count(&a, &b_))
    });
    group.bench_function("intersect_gallop/balanced", |bch| {
        bch.iter(|| intersect_count_gallop(&a, &b_))
    });
    group.bench_function("intersect_merge/skewed", |bch| {
        bch.iter(|| intersect_count(&tiny, &a))
    });
    group.bench_function("intersect_gallop/skewed", |bch| {
        bch.iter(|| intersect_count_gallop(&tiny, &a))
    });

    // --- frontier pipeline on a ≥1M-edge R-MAT ---------------------------
    // Three output-collection strategies for the same expansion, and the
    // fused-dedup advance against the two-pass expand + uniquify.
    let big = Workload::Rmat.directed(17);
    let big_n = big.get_num_vertices();
    let big_ctx = Context::new(4);
    let all: SparseFrontier = big.vertices().collect();
    let admit = |_s: VertexId, d: VertexId, _e: EdgeId, _w: ()| d.is_multiple_of(2);
    let edges_label = format!("rmat17_{}edges", big.get_num_edges());

    // Paper Listing 3: one global mutex around every push.
    group.bench_function(format!("collect_global_mutex/{edges_label}"), |b| {
        b.iter(|| neighbors_expand_mutex(execution::par, &big_ctx, &big, &all, admit))
    });
    // Pre-refactor collector: per-worker Mutex<Vec> buffers.
    group.bench_function(format!("collect_mutex_collector/{edges_label}"), |b| {
        b.iter(|| {
            let collector = Collector::new(big_ctx.num_threads());
            for_each_edge_balanced(&big_ctx, &big, all.as_slice(), |tid, _v, d, _e| {
                if d % 2 == 0 {
                    collector.push(tid, d);
                }
            });
            collector.into_frontier()
        })
    });
    // Current path: lock-free cache-line-padded worker buffers + scratch.
    group.bench_function(format!("collect_lockfree/{edges_label}"), |b| {
        b.iter(|| {
            let out = neighbors_expand(execution::par, &big_ctx, &big, &all, admit);
            big_ctx.recycle_frontier(out);
        })
    });

    group.bench_function(format!("dedup_expand_then_uniquify/{edges_label}"), |b| {
        b.iter(|| {
            let out = neighbors_expand(execution::par, &big_ctx, &big, &all, admit);
            let unique = uniquify_with_bitmap(execution::par, &big_ctx, &out, big_n);
            big_ctx.recycle_frontier(out);
            big_ctx.recycle_frontier(unique);
        })
    });
    group.bench_function(format!("dedup_fused_bitmap/{edges_label}"), |b| {
        b.iter(|| {
            let out = neighbors_expand_unique(execution::par, &big_ctx, &big, &all, admit);
            big_ctx.recycle_frontier(out);
        })
    });

    // --- bitmap decode: per-bit probe vs iterator vs word scan ------------
    // The dense-frontier scan kernel behind the masked pull. The word scan
    // costs one load per 64 bits and decodes with trailing_zeros in a tight
    // loop; the parallel form hands workers disjoint word ranges.
    {
        use essentials_parallel::atomics::AtomicBitset;
        let nbits = 1usize << 20;
        let wctx = Context::new(4);
        for density_pct in [1usize, 50, 90] {
            let bits = AtomicBitset::new(nbits);
            for i in 0..nbits {
                if (i.wrapping_mul(2654435761)) % 100 < density_pct {
                    bits.set(i);
                }
            }
            group.bench_function(format!("bitmap_bit_probe/{density_pct}pct"), |b| {
                b.iter(|| (0..nbits).filter(|&i| bits.get(i)).count())
            });
            group.bench_function(format!("bitmap_iter_ones/{density_pct}pct"), |b| {
                b.iter(|| bits.iter_ones().count())
            });
            group.bench_function(format!("bitmap_word_scan/{density_pct}pct"), |b| {
                b.iter(|| {
                    let mut acc = 0usize;
                    bits.for_each_set(|_| acc += 1);
                    acc
                })
            });
            group.bench_function(format!("bitmap_word_scan_par/{density_pct}pct"), |b| {
                b.iter(|| {
                    wctx.pool().parallel_reduce(
                        0..bits.num_words(),
                        Schedule::Dynamic(64),
                        0usize,
                        |wi| {
                            let mut acc = 0usize;
                            bits.for_each_set_in_words(wi, wi + 1, &mut |_| acc += 1);
                            acc
                        },
                        |a, b| a + b,
                    )
                })
            });
        }
    }

    // --- degree prefix sum: serial vs parallel ---------------------------
    let degrees: Vec<usize> = (0..big_n).map(|v| big.out_degree(v as VertexId)).collect();
    let mut scan_out = Vec::new();
    group.bench_function(format!("scan_serial/{big_n}"), |b| {
        b.iter(|| serial_scan(&degrees, &mut scan_out))
    });
    group.bench_function(format!("scan_parallel/{big_n}"), |b| {
        b.iter(|| parallel_scan(big_ctx.pool(), &degrees, &mut scan_out))
    });

    // --- representation build costs (Listing 1's "cost of memory space") -
    let coo = Workload::Rmat.edges(10);
    group.bench_function("build_csr", |b| b.iter(|| Csr::from_coo(&coo)));
    let csr = Csr::<()>::from_coo(&coo);
    group.bench_function("build_csc_from_csr", |b| b.iter(|| csr.transposed()));

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
