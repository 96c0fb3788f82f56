//! Differential tests: the shared-memory algorithms and their
//! message-passing (`essentials-mp`) counterparts must compute the same
//! answers on the same seeded graphs, across thread counts (shared memory)
//! and partition counts (message passing).
//!
//! Shared memory sweeps 1/2/8 worker threads; message passing sweeps
//! 1/2/8 partitions (its ranks, run on a two-worker pool). Every configuration is
//! checked against one thread-count-independent oracle per algorithm.

use essentials::prelude::*;
use essentials_algos::{bfs, cc, hits, pagerank, sssp};
use essentials_gen as gen;
use essentials_mp::algorithms::{mp_bfs, mp_pagerank, mp_sssp};
use essentials_partition::{random_partition, PartitionedGraph};
use std::sync::atomic::{AtomicU32, Ordering};

#[path = "common/reps.rs"]
mod reps;
use reps::Reps;

/// The fixed-push plan: the traversal of the paper's listings, CSR only.
fn push() -> DirectionPolicy {
    DirectionPolicy::fixed(Direction::Push)
}

const SHM_THREADS: [usize; 3] = [1, 2, 8];
const MP_PARTITIONS: [usize; 3] = [1, 2, 8];

fn sym(coo: Coo<()>) -> Graph<()> {
    GraphBuilder::from_coo(coo)
        .remove_self_loops()
        .symmetrize()
        .deduplicate()
        .with_csc()
        .build()
}

fn weighted(mut coo: Coo<()>) -> Graph<f32> {
    coo.remove_self_loops();
    coo.symmetrize();
    coo.sort_and_dedup();
    let mut g = Graph::from_coo(&gen::hash_weights(&coo, 0.1, 2.0, 42));
    g.ensure_csc();
    g
}

/// R-MAT (power law) and Erdős–Rényi G(n, m) topologies, seeded.
fn topologies() -> Vec<(&'static str, Coo<()>)> {
    vec![
        ("rmat", gen::rmat(8, 8, gen::RmatParams::default(), 11)),
        ("gnm", gen::gnm(400, 2400, 7)),
    ]
}

fn close_f32(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x.is_infinite() && y.is_infinite()) || (x - y).abs() < 1e-3)
}

#[test]
fn bfs_levels_agree_across_backends() {
    for (name, coo) in topologies() {
        let g = sym(coo);
        let oracle = bfs::bfs_sequential(&g, 0).level;
        for &t in &SHM_THREADS {
            let ctx = Context::new(t);
            let r = bfs::bfs(execution::par, &ctx, &g, 0, push());
            assert_eq!(r.level, oracle, "shm bfs diverged on {name} at {t} threads");
            let a = bfs::bfs_adaptive(execution::par, &ctx, &g, 0);
            assert_eq!(
                a.level, oracle,
                "adaptive bfs diverged on {name} at {t} threads"
            );
        }
        let ctx = Context::new(2);
        for &k in &MP_PARTITIONS {
            let p = random_partition(g.get_num_vertices(), k, 13);
            let pg = PartitionedGraph::build(&g, &p);
            let (levels, stats) = mp_bfs(&ctx, &pg, 0);
            assert_eq!(
                levels, oracle,
                "mp bfs diverged on {name} at {k} partitions"
            );
            assert!(stats.supersteps > 0);
        }
    }
}

#[test]
fn sssp_distances_agree_across_backends() {
    for (name, coo) in topologies() {
        let g = weighted(coo);
        let oracle = sssp::dijkstra(&g, 0).dist;
        for &t in &SHM_THREADS {
            let ctx = Context::new(t);
            let r = sssp::sssp(execution::par, &ctx, &g, 0, push());
            assert!(
                close_f32(&r.dist, &oracle),
                "shm sssp diverged on {name} at {t} threads"
            );
            let a = sssp::sssp_adaptive(execution::par, &ctx, &g, 0);
            assert!(
                close_f32(&a.dist, &oracle),
                "adaptive sssp diverged on {name} at {t} threads"
            );
        }
        let ctx = Context::new(2);
        for &k in &MP_PARTITIONS {
            let p = random_partition(g.get_num_vertices(), k, 13);
            let pg = PartitionedGraph::build(&g, &p);
            let (dist, _) = mp_sssp(&ctx, &pg, 0);
            assert!(
                close_f32(&dist, &oracle),
                "mp sssp diverged on {name} at {k} partitions"
            );
        }
    }
}

#[test]
fn blocked_gather_agrees_with_naive_on_f64_ranks() {
    // The propagation-blocked gather reorders memory traffic, not
    // arithmetic: per destination the binned entries accumulate in
    // source-ascending order — the same sequence the naive pull sums — so
    // f64 ranks agree to 1e-12 L∞ (and in practice to the last ulp).
    let iterations = 30;
    let cfg = pagerank::PrConfig {
        damping: 0.85,
        tolerance: 0.0,
        max_iterations: iterations,
    };
    let scan = DirectionPolicy::default();
    let blocked = DirectionPolicy::fixed(Direction::BlockedPull);
    // 90 000 vertices: three default-size (2^15-vertex) bins flush.
    let multi_bin = ("grid 300x300", gen::grid2d(300, 300));
    for (name, coo) in topologies().into_iter().chain([multi_bin]) {
        let g = sym(coo);
        let pr_oracle =
            pagerank::pagerank_pull(execution::seq, &Context::sequential(), &g, cfg).rank;
        let hcfg = hits::HitsConfig {
            tolerance: 0.0,
            max_iterations: 20,
        };
        let hits_oracle = hits::hits(execution::seq, &Context::sequential(), &g, hcfg, scan);
        for &t in &SHM_THREADS {
            let ctx = Context::new(t);
            let r = pagerank::pagerank(execution::par, &ctx, &g, cfg, blocked);
            assert_eq!(r.direction, Direction::BlockedPull);
            assert_eq!(r.stats.iterations, iterations);
            for (a, b) in r.rank.iter().zip(&pr_oracle) {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "blocked pr diverged on {name} at {t} threads: {a} vs {b}"
                );
            }
            let h = hits::hits(execution::par, &ctx, &g, hcfg, blocked);
            assert_eq!(h.direction, Direction::BlockedPull);
            for (a, b) in h
                .hub
                .iter()
                .zip(&hits_oracle.hub)
                .chain(h.authority.iter().zip(&hits_oracle.authority))
            {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "blocked hits diverged on {name} at {t} threads: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn blocked_gather_is_exact_on_integer_payloads() {
    // Integer payloads leave no room for tolerance: BFS levels through the
    // direction engine under every plan — the fixed directions, blocked
    // pull among them, and the default α/β switch — and CC labels through a
    // label-propagation loop driven directly by `try_expand_blocked_pull`,
    // must equal the sequential oracles bit for bit.
    let plans = [
        push(),
        DirectionPolicy::fixed(Direction::DensePush),
        DirectionPolicy::fixed(Direction::Pull),
        DirectionPolicy::fixed(Direction::BlockedPull),
        DirectionPolicy::default(),
    ];
    for (name, coo) in topologies() {
        let g = sym(coo);
        let n = g.get_num_vertices();

        let bfs_oracle = bfs::bfs_sequential(&g, 0).level;
        for &t in &SHM_THREADS {
            let ctx = Context::new(t);
            for plan in plans {
                let r = bfs::bfs(execution::par, &ctx, &g, 0, plan);
                assert_eq!(
                    r.level, bfs_oracle,
                    "{plan:?} bfs diverged on {name} at {t} threads"
                );
            }
        }

        // CC by min-label propagation, every iteration a blocked pull over
        // the full candidate set. `fetch_min` is monotone, so the loop lands
        // on the same per-component-minimum fixpoint as the union-find
        // oracle no matter how the bins interleave.
        let cc_oracle = cc::cc_union_find(&g).comp;
        for &t in &SHM_THREADS {
            let ctx = Context::new(t);
            let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
            let candidates = DenseFrontier::new(n);
            candidates.set_all();
            let mut frontier = DenseFrontier::new(n);
            frontier.set_all();
            while !frontier.is_empty() {
                let (next, _scanned) = try_expand_blocked_pull(
                    execution::par,
                    &ctx,
                    &g,
                    &frontier,
                    &candidates,
                    PullConfig { early_exit: false },
                    BlockedConfig { bin_bits: 6 },
                    |src, dst, _w| {
                        let l = labels[src as usize].load(Ordering::Acquire);
                        labels[dst as usize].fetch_min(l, Ordering::AcqRel) > l
                    },
                )
                .unwrap();
                frontier = next;
            }
            let comp: Vec<VertexId> = labels.into_iter().map(AtomicU32::into_inner).collect();
            assert_eq!(
                comp, cc_oracle,
                "blocked cc diverged on {name} at {t} threads"
            );
        }
    }
}

/// What the adaptive suite computes over one unweighted representation.
#[derive(Debug, PartialEq)]
struct AdaptiveAnswers {
    levels: Vec<u32>,
    directions: Vec<Direction>,
    comp: Vec<VertexId>,
    rank: Vec<f64>,
}

/// Adaptive BFS and CC plus fixed-iteration pull PageRank — the same generic
/// functions whatever `G` is.
fn adaptive_answers<G>(ctx: &Context, g: &G, pr_iterations: usize) -> AdaptiveAnswers
where
    G: OutWeights<()> + InWeights<()> + Sync,
{
    let cfg = pagerank::PrConfig {
        damping: 0.85,
        tolerance: 0.0,
        max_iterations: pr_iterations,
    };
    let b = bfs::bfs_adaptive(execution::par, ctx, g, 0);
    AdaptiveAnswers {
        levels: b.level,
        directions: b.directions,
        comp: cc::cc_adaptive(execution::par, ctx, g).comp,
        rank: pagerank::pagerank_pull(execution::par, ctx, g, cfg).rank,
    }
}

/// Default-plan SSSP, then Δ-stepping at two widths on the default and the
/// pull plan — the one SSSP body, whatever `G` is.
fn sssp_dists<G>(ctx: &Context, g: &G) -> Vec<(String, Vec<f32>)>
where
    G: OutWeights<f32> + InWeights<f32> + Sync,
{
    let mut rows = vec![(
        "default".to_string(),
        sssp::sssp_adaptive(execution::par, ctx, g, 0).dist,
    )];
    for delta in [0.5, 4.0] {
        for (name, plan) in [
            ("default", DirectionPolicy::default()),
            ("pull", DirectionPolicy::fixed(Direction::Pull)),
        ] {
            let r = sssp::delta_stepping(execution::par, ctx, g, 0, plan, delta);
            rows.push((format!("delta {delta} on the {name} plan"), r.dist));
        }
    }
    rows
}

#[test]
fn every_representation_agrees_bit_for_bit_across_thread_counts() {
    // Byte-coding the adjacency, or mapping it from the on-disk container,
    // is a representation change, not an algorithm change: every
    // representation streams neighbors in the same ascending order, so
    // every fixpoint (BFS levels, SSSP distances, CC labels), every
    // direction decision, and every floating-point accumulation (PageRank's
    // gather sums) must equal the raw single-thread run bit for bit — not
    // within tolerance — on raw / compressed / mmapped × 1 / 2 / 8 threads.
    // Every SSSP row, Δ-stepping's near–far order on a pulling plan
    // included, equals push SSSP's least fixpoint bit for bit.
    for (name, coo) in topologies() {
        let reps = Reps::new(sym(coo.clone()));
        let repsw = Reps::new(weighted(coo));
        let one = Context::new(1);
        let reference = adaptive_answers(&one, &reps.raw, 30);
        let reference_dist = sssp::sssp(execution::par, &one, &repsw.raw, 0, push()).dist;
        assert_eq!(reference.levels, bfs::bfs_sequential(&reps.raw, 0).level);
        assert_eq!(reference.comp, cc::cc_union_find(&reps.raw).comp);
        let (mapped, mappedw) = (reps.mapped(), repsw.mapped());
        for &t in &SHM_THREADS {
            let ctx = Context::new(t);
            let answers = [
                ("raw", adaptive_answers(&ctx, &reps.raw, 30)),
                ("compressed", adaptive_answers(&ctx, &reps.compressed, 30)),
                ("mmapped", adaptive_answers(&ctx, &mapped, 30)),
            ];
            let dists = [
                ("raw", sssp_dists(&ctx, &repsw.raw)),
                ("compressed", sssp_dists(&ctx, &repsw.compressed)),
                ("mmapped", sssp_dists(&ctx, &mappedw)),
            ];
            for (rep, a) in &answers {
                assert_eq!(a, &reference, "{rep} diverged on {name} at {t} threads");
            }
            for (rep, rows) in &dists {
                for (row, d) in rows {
                    assert_eq!(
                        d, &reference_dist,
                        "{rep} sssp ({row}) diverged on {name} at {t} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn pagerank_stays_bit_identical_past_the_parallel_sum_cutoff() {
    // The scale-8 topologies above sit below the schedule's sequential
    // cutoff, so their dangling-mass and residual sums take the exact
    // sequential loop and never exercise sum_f64's parallel path. This
    // graph is large enough that the chunked path runs. The regression it
    // guards: a merge-order-dependent parallel sum shifts every rank by an
    // ulp at benchmark scale while every small-graph test stays green.
    let reps = Reps::new(sym(gen::rmat(12, 8, gen::RmatParams::default(), 19)));
    assert!(reps.raw.get_num_vertices() >= 4096);
    let cfg = pagerank::PrConfig {
        damping: 0.85,
        tolerance: 0.0,
        max_iterations: 10,
    };
    let ctx = Context::new(4);
    let raw = pagerank::pagerank_pull(execution::par, &ctx, &reps.raw, cfg).rank;
    let again = pagerank::pagerank_pull(execution::par, &ctx, &reps.raw, cfg).rank;
    assert_eq!(raw, again, "raw pull is not run-to-run deterministic");
    let c = pagerank::pagerank_pull(execution::par, &ctx, &reps.compressed, cfg).rank;
    assert_eq!(c, raw, "compressed pull diverged past the cutoff");
    let m = pagerank::pagerank_pull(execution::par, &ctx, &reps.mapped(), cfg).rank;
    assert_eq!(m, raw, "mmapped pull diverged past the cutoff");
}

#[test]
fn pagerank_agrees_across_backends_at_fixed_iterations() {
    // mp_pagerank has no dangling-mass redistribution, so compare on
    // dangling-free graphs only (symmetric and dense enough that every
    // vertex keeps an edge). Both sides run the same fixed iteration count
    // so tolerance-stopping differences cannot creep in.
    let iterations = 30;
    let cfg = pagerank::PrConfig {
        damping: 0.85,
        tolerance: 0.0,
        max_iterations: iterations,
    };
    let graphs = vec![
        ("gnm", sym(gen::gnm(400, 2400, 7))),
        ("grid", sym(gen::grid2d(20, 20))),
    ];
    for (name, g) in graphs {
        assert!(
            g.vertices().all(|v| g.out_degree(v) > 0),
            "{name} has dangling vertices; the comparison would be invalid"
        );
        let oracle = pagerank::pagerank_pull(execution::seq, &Context::sequential(), &g, cfg).rank;
        for &t in &SHM_THREADS {
            let ctx = Context::new(t);
            let r = pagerank::pagerank_pull(execution::par, &ctx, &g, cfg);
            for (a, b) in r.rank.iter().zip(&oracle) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "shm pr diverged on {name} at {t} threads"
                );
            }
        }
        let ctx = Context::new(2);
        for &k in &MP_PARTITIONS {
            let p = random_partition(g.get_num_vertices(), k, 13);
            let pg = PartitionedGraph::build(&g, &p);
            let (rank, stats) = mp_pagerank(&ctx, &pg, 0.85, iterations);
            for (a, b) in rank.iter().zip(&oracle) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "mp pr diverged on {name} at {k} partitions: {a} vs {b}"
                );
            }
            assert!(stats.supersteps >= iterations);
        }
    }
}
