//! E5 — load balancing inside operators: vertex- vs edge-balanced work
//! division, and the Listing-3 mutex output vs per-thread collectors
//! (paper §IV-C: operators are "where the bulk of optimizations" lives).

use criterion::{criterion_group, criterion_main, Criterion};
use essentials_bench::Workload;
use essentials_core::load_balance::{for_each_edge_balanced, for_each_vertex_balanced};
use essentials_core::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_load_balance");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(1200));
    let ctx = Context::new(2);
    for w in [Workload::Rmat, Workload::Grid] {
        let g = w.directed(10);
        let frontier: Vec<VertexId> = g.vertices().collect();
        group.bench_function(format!("vertex_balanced/{}", w.name()), |b| {
            b.iter(|| {
                let acc = AtomicUsize::new(0);
                for_each_vertex_balanced(&ctx, &frontier, |_, v| {
                    acc.fetch_add(g.out_degree(v), Ordering::Relaxed);
                });
                acc.into_inner()
            })
        });
        group.bench_function(format!("edge_balanced/{}", w.name()), |b| {
            b.iter(|| {
                let acc = AtomicUsize::new(0);
                for_each_edge_balanced(&ctx, &g, &frontier, |_, _, _, _| {
                    acc.fetch_add(1, Ordering::Relaxed);
                });
                acc.into_inner()
            })
        });
        let f: SparseFrontier = g.vertices().collect();
        group.bench_function(format!("expand_mutex/{}", w.name()), |b| {
            b.iter(|| neighbors_expand_mutex(execution::par, &ctx, &g, &f, |_, _, _, _| true))
        });
        group.bench_function(format!("expand_collector/{}", w.name()), |b| {
            b.iter(|| neighbors_expand(execution::par, &ctx, &g, &f, |_, _, _, _| true))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
