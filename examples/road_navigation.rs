//! Road-network navigation: the high-diameter uniform regime.
//!
//! Builds a weighted grid standing in for a road network and compares every
//! SSSP variant the abstraction hosts — Listing-4 BSP, asynchronous
//! (no-barrier), Δ-stepping, and the sequential baselines — reporting
//! wall time, supersteps, and edge relaxations (the machine-independent
//! work measure). All variants must return identical distances.
//!
//! Run: `cargo run --release --example road_navigation`

use std::time::Instant;

use essentials::prelude::*;
use essentials_algos::sssp;
use essentials_gen as gen;

fn main() {
    // A 256×256 "city": 65k intersections, 4-connected, hashed travel times.
    let coo = gen::grid2d(256, 256);
    let g = Graph::from_coo(&gen::hash_weights(&coo, 0.5, 3.0, 7));
    println!(
        "road network: {} intersections, {} road segments",
        g.get_num_vertices(),
        g.get_num_edges()
    );
    let ctx = Context::default();
    let push = DirectionPolicy::fixed(Direction::Push);
    let source: VertexId = 0;

    let mut reference: Option<Vec<f32>> = None;
    let mut report = |name: &str, f: &dyn Fn() -> (Vec<f32>, usize, usize)| {
        let t = Instant::now();
        let (dist, iters, relax) = f();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match &reference {
            None => {
                assert!(sssp::verify_sssp(&g, source, &dist, 1e-4));
                reference = Some(dist);
            }
            Some(r) => {
                let ok = r
                    .iter()
                    .zip(&dist)
                    .all(|(a, b)| (a - b).abs() <= 1e-3 * (1.0 + a.abs()));
                assert!(ok, "{name} diverged from the reference distances");
            }
        }
        println!("  {name:<22} {ms:>9.2} ms  {iters:>6} iters  {relax:>9} relaxations");
    };

    println!("\nSSSP from the north-west corner:");
    report("dijkstra (baseline)", &|| {
        let r = sssp::dijkstra(&g, source);
        (r.dist, r.stats.iterations, r.relaxations)
    });
    report("bellman-ford", &|| {
        let r = sssp::bellman_ford(&g, source);
        (r.dist, r.stats.iterations, r.relaxations)
    });
    report("bsp (listing 4, seq)", &|| {
        let r = sssp::sssp(execution::seq, &ctx, &g, source, push);
        (r.dist, r.stats.iterations, r.relaxations)
    });
    report("bsp (listing 4, par)", &|| {
        let r = sssp::sssp(execution::par, &ctx, &g, source, push);
        (r.dist, r.stats.iterations, r.relaxations)
    });
    report("async (no barriers)", &|| {
        let r = sssp::sssp_async(&ctx, &g, source);
        (r.dist, r.stats.iterations, r.relaxations)
    });
    for delta in [0.5, 2.0, 8.0] {
        let name = format!("delta-stepping {delta}");
        report(&name, &|| {
            let r = sssp::delta_stepping(execution::par, &ctx, &g, source, delta);
            (r.dist, r.stats.iterations, r.relaxations)
        });
    }

    // The grid's hop diameter shows why BSP pays here: one superstep per
    // wavefront.
    let bfs = essentials_algos::bfs::bfs(execution::par, &ctx, &g, source, push);
    let hops = bfs
        .level
        .iter()
        .filter(|&&l| l != essentials_algos::bfs::UNVISITED)
        .max()
        .copied()
        .unwrap_or(0);
    println!("\nhop diameter from source: {hops} (≈ BSP supersteps needed)");
}
