//! What the execution model does and does not let vary.
//!
//! Under the synchronous (BSP) policy the suite's results are
//! *bit-deterministic* across thread counts:
//!
//! * BFS levels — a vertex's level is the first superstep that reaches it,
//!   which no intra-superstep ordering can change;
//! * SSSP distances — monotone `fetch_min` relaxation converges to the
//!   unique least fixpoint `dist[v] = min over paths of the f32 path sum`
//!   (float addition is monotone, so the bound propagates identically under
//!   any schedule);
//! * pull PageRank at a fixed iteration count on dangling-free graphs —
//!   each vertex's gather is a sequential sum over its in-neighbors, so
//!   thread count never reassociates it;
//! * message-passing (Pregel) runs — each rank is one sequential chunk and
//!   delivery orders a vertex's messages by sender rank and outbox
//!   position, so values and message counts depend on the partitioning,
//!   never on the thread count.
//!
//! What MAY vary, and is documented rather than promised:
//!
//! * the asynchronous variants (`sssp_async`, the `par_nosync` policy) perform a schedule-dependent *amount of work* —
//!   relaxation counts and iteration structure differ run to run — but
//!   their monotone updates still land on the same fixpoint, so final
//!   values stay bit-identical;
//! * tolerance-based stopping reads a parallel floating-point reduction
//!   (`sum_f64` reassociates), so the *iteration count* at which a
//!   tolerance trips may differ across thread counts — which is why the
//!   fixed-iteration configuration below is the one with a bit-identity
//!   guarantee;
//! * push PageRank accumulates with atomic f64 adds in scheduling order,
//!   so its ranks are only tolerance-equal, not bit-equal, across runs.

use essentials::prelude::*;
use essentials_algos::{bfs, cc, hits, pagerank, sssp};
use essentials_gen as gen;
use essentials_mp::algorithms::{mp_bfs, mp_bfs_combined, mp_pagerank, mp_sssp, mp_sssp_combined};
use essentials_mp::MpStats;
use essentials_partition::{random_partition, PartitionedGraph};
use std::sync::Arc;

#[path = "common/reps.rs"]
mod reps;
use reps::Reps;

/// The fixed-push plan: the traversal of the paper's listings, CSR only.
fn push() -> DirectionPolicy {
    DirectionPolicy::fixed(Direction::Push)
}

const THREADS: [usize; 3] = [1, 2, 8];

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

/// The adaptive engine's direction choices depend only on frontier sizes
/// and edge mass — both independent of thread count and of how the
/// adjacency is stored — so its levels, and even its per-iteration
/// direction trace, are too.
fn assert_adaptive_bfs_is_deterministic<G>(rep: &str, g: &G, levels: &[u32])
where
    G: OutWeights<()> + InWeights<()> + Sync,
{
    let trace = bfs::bfs_adaptive(execution::par, &Context::new(1), g, 0).directions;
    for &t in &THREADS {
        let a = bfs::bfs_adaptive(execution::par, &Context::new(t), g, 0);
        assert_eq!(
            a.level, levels,
            "adaptive levels diverged on {rep} at {t} threads"
        );
        assert_eq!(
            a.directions, trace,
            "direction trace diverged on {rep} at {t} threads"
        );
    }
}

#[test]
fn bfs_levels_bit_identical_across_thread_counts() {
    let reps = Reps::new(sym(gen::rmat(8, 8, gen::RmatParams::default(), 11)));
    let g = &reps.raw;
    let reference = bfs::bfs(execution::seq, &Context::sequential(), g, 0, push()).level;
    for &t in &THREADS {
        let r = bfs::bfs(execution::par, &Context::new(t), g, 0, push());
        assert_eq!(r.level, reference, "levels diverged at {t} threads");
    }
    assert_adaptive_bfs_is_deterministic("raw", g, &reference);
    assert_adaptive_bfs_is_deterministic("compressed", &reps.compressed, &reference);
    assert_adaptive_bfs_is_deterministic("mmapped", &reps.mapped(), &reference);
}

/// Direction independent as well as schedule independent: whatever mix of
/// push and pull the adaptive engine chooses, monotone relaxation lands on
/// the same least fixpoint.
fn assert_adaptive_sssp_is_deterministic<G>(rep: &str, g: &G, dist: &[f32])
where
    G: OutWeights<f32> + InWeights<f32> + Sync,
{
    for &t in &THREADS {
        let a = sssp::sssp_adaptive(execution::par, &Context::new(t), g, 0);
        assert_eq!(
            a.dist, dist,
            "adaptive distances diverged on {rep} at {t} threads"
        );
    }
}

#[test]
fn sssp_distances_bit_identical_across_thread_counts() {
    let reps = Reps::new(weighted(gen::rmat(8, 8, gen::RmatParams::default(), 11)));
    let g = &reps.raw;
    let reference = sssp::sssp(execution::seq, &Context::sequential(), g, 0, push()).dist;
    for &t in &THREADS {
        let r = sssp::sssp(execution::par, &Context::new(t), g, 0, push());
        // Exact f32 equality — the least fixpoint is schedule independent.
        assert_eq!(r.dist, reference, "distances diverged at {t} threads");
    }
    assert_adaptive_sssp_is_deterministic("raw", g, &reference);
    assert_adaptive_sssp_is_deterministic("compressed", &reps.compressed, &reference);
    assert_adaptive_sssp_is_deterministic("mmapped", &reps.mapped(), &reference);
}

/// Each vertex's gather is a sequential sum over its ascending in-neighbor
/// stream, so neither thread count nor representation reassociates it. The
/// same holds for personalized PageRank, which is the same body.
fn assert_pagerank_pull_is_deterministic<G>(
    rep: &str,
    g: &G,
    cfg: pagerank::PrConfig,
    rank: &[f64],
    ppr: &[f64],
) where
    G: OutAdjacency + InAdjacency + Sync,
{
    for &t in &THREADS {
        let ctx = Context::new(t);
        let r = pagerank::pagerank(execution::par, &ctx, g, cfg, DirectionPolicy::default());
        assert_eq!(r.direction, Direction::Pull);
        assert_eq!(r.stats.iterations, cfg.max_iterations);
        assert_eq!(r.rank, rank, "ranks diverged on {rep} at {t} threads");
        let p = pagerank::personalized_pagerank(execution::par, &ctx, g, &[0, 7], cfg);
        assert_eq!(
            p.rank, ppr,
            "personalized ranks diverged on {rep} at {t} threads"
        );
    }
}

fn pull() -> DirectionPolicy {
    DirectionPolicy::default()
}

#[test]
fn pagerank_pull_bit_identical_at_fixed_iteration_count() {
    let reps = Reps::new(sym(gen::gnm(400, 2400, 5)));
    let g = &reps.raw;
    // Dangling mass feeds into every rank via the teleport base; an
    // all-zero dangling sum is the one f64 reduction whose value no
    // reassociation can change, so the guarantee needs this guard.
    assert!(
        g.vertices().all(|v| g.out_degree(v) > 0),
        "graph has dangling vertices; pick a denser seed"
    );
    let cfg = pagerank::PrConfig {
        damping: 0.85,
        tolerance: 0.0, // never trips: exactly max_iterations run
        max_iterations: 25,
    };
    let seq = Context::sequential();
    let reference = pagerank::pagerank_pull(execution::seq, &seq, g, cfg).rank;
    let ppr = pagerank::personalized_pagerank(execution::seq, &seq, g, &[0, 7], cfg).rank;
    assert_pagerank_pull_is_deterministic("raw", g, cfg, &reference, &ppr);
    assert_pagerank_pull_is_deterministic("compressed", &reps.compressed, cfg, &reference, &ppr);
    assert_pagerank_pull_is_deterministic("mmapped", &reps.mapped(), cfg, &reference, &ppr);
}

/// Blocked PageRank and blocked HITS over one representation at every
/// thread count must equal the references bit for bit.
fn assert_blocked_ranking_is_deterministic<G>(
    rep: &str,
    g: &G,
    pr_ref: &[f64],
    hits_ref: &hits::HitsResult,
) where
    G: OutAdjacency + InAdjacency + Sync,
{
    let blocked = DirectionPolicy::fixed(Direction::BlockedPull);
    for &t in &THREADS {
        let ctx = Context::new(t);
        let r = pagerank::pagerank(execution::par, &ctx, g, blocked_pr_cfg(), blocked);
        assert_eq!(r.direction, Direction::BlockedPull);
        assert_eq!(
            r.rank, pr_ref,
            "blocked ranks diverged on {rep} at {t} threads"
        );
        let h = hits::hits(execution::par, &ctx, g, blocked_hits_cfg(), blocked);
        assert_eq!(h.direction, Direction::BlockedPull);
        assert_eq!(
            h.hub, hits_ref.hub,
            "blocked hubs diverged on {rep} at {t} threads"
        );
        assert_eq!(
            h.authority, hits_ref.authority,
            "blocked authorities diverged on {rep} at {t} threads"
        );
    }
}

fn blocked_pr_cfg() -> pagerank::PrConfig {
    pagerank::PrConfig {
        damping: 0.85,
        tolerance: 0.0, // never trips: exactly max_iterations run
        max_iterations: 10,
    }
}

fn blocked_hits_cfg() -> hits::HitsConfig {
    hits::HitsConfig {
        tolerance: 0.0,
        max_iterations: 10,
    }
}

fn linf(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn blocked_gather_results_bit_identical_across_thread_counts() {
    // The propagation-blocked gather extends the pull-side guarantee: each
    // destination bin is flushed by exactly one worker, and within a bin
    // the entries sit in source-ascending order — the same sequential sum
    // the scan performs, so neither thread count nor representation
    // reassociates it. The grid has more than 2^15 vertices, so the
    // default-size bins split it and more than one bin is flushed.
    let reps = Reps::new(sym(gen::grid2d(182, 182)));
    let g = &reps.raw;
    assert!(g.get_num_vertices() > 1 << 15);
    let seq = Context::sequential();
    let blocked = DirectionPolicy::fixed(Direction::BlockedPull);
    let pr_ref = pagerank::pagerank(execution::seq, &seq, g, blocked_pr_cfg(), blocked).rank;
    let h_ref = hits::hits(execution::seq, &seq, g, blocked_hits_cfg(), blocked);
    // ...and the scans it replaces agree to the last few ulps.
    let pr_scan = pagerank::pagerank(execution::seq, &seq, g, blocked_pr_cfg(), pull()).rank;
    assert!(linf(&pr_ref, &pr_scan) <= 1e-12, "blocked pr vs scan");
    let h_scan = hits::hits(execution::seq, &seq, g, blocked_hits_cfg(), pull());
    assert!(
        linf(&h_ref.hub, &h_scan.hub) <= 1e-12,
        "blocked hubs vs scan"
    );
    assert!(
        linf(&h_ref.authority, &h_scan.authority) <= 1e-12,
        "blocked authorities vs scan"
    );
    assert_blocked_ranking_is_deterministic("raw", g, &pr_ref, &h_ref);
    assert_blocked_ranking_is_deterministic("compressed", &reps.compressed, &pr_ref, &h_ref);
    assert_blocked_ranking_is_deterministic("mmapped", &reps.mapped(), &pr_ref, &h_ref);

    let g = sym(gen::gnm(400, 2400, 5));
    // Through the direction engine, every plan — the fixed directions,
    // blocked pull among them, and the default α/β switch — yields the same
    // levels AND the same per-iteration direction trace at every thread
    // count (the decision reads only frontier sizes).
    let blocked = DirectionPolicy::fixed(Direction::BlockedPull);
    let plans = [
        push(),
        DirectionPolicy::fixed(Direction::DensePush),
        DirectionPolicy::fixed(Direction::Pull),
        DirectionPolicy::default(),
        blocked,
    ];
    let oracle = bfs::bfs_sequential(&g, 0).level;
    for plan in plans {
        let b_ref = bfs::bfs(execution::par, &Context::new(1), &g, 0, plan);
        assert_eq!(b_ref.level, oracle, "{plan:?}");
        for &t in &THREADS {
            let ctx = Context::new(t);
            let r = bfs::bfs(execution::par, &ctx, &g, 0, plan);
            assert_eq!(r.level, b_ref.level, "{plan:?} diverged at {t} threads");
            assert_eq!(
                r.directions, b_ref.directions,
                "{plan:?} direction trace diverged at {t} threads"
            );
        }
    }
    let b = bfs::bfs(execution::par, &Context::new(1), &g, 0, blocked);
    assert!(
        b.directions.iter().all(|&d| d == Direction::BlockedPull),
        "the blocked plan left the blocked-pull path; the test is vacuous"
    );
}

#[test]
fn budget_stops_are_thread_count_deterministic_for_bsp_runs() {
    // The resilient layer extends the determinism contract: BSP frontier
    // sizes are thread-count independent, and the budget's deterministic
    // limits (iteration cap, fault-plan cancellation) are checked *before*
    // the wall clock — so a budget stop at iteration k yields bit-identical
    // partial progress at every thread count.
    let g = sym(gen::rmat(8, 8, gen::RmatParams::default(), 11));
    let wg = weighted(gen::rmat(8, 8, gen::RmatParams::default(), 11));

    type Run<'a> = &'a dyn Fn(&Context) -> Result<(), ExecError>;
    let progress_at = |threads: usize, run: Run| {
        let ctx = Context::new(threads).with_budget(RunBudget::unlimited().with_max_iterations(2));
        match run(&ctx) {
            Err(ExecError::Budget { reason, progress }) => {
                assert_eq!(reason, BudgetReason::IterationCap);
                progress
            }
            other => panic!("expected Budget(IterationCap), got {other:?}"),
        }
    };
    let bfs_run = |ctx: &Context| bfs::try_bfs(execution::par, ctx, &g, 0, push()).map(drop);
    let reference = progress_at(1, &bfs_run);
    assert_eq!(reference.iterations, 2);
    assert_eq!(reference.work_trace.len(), 2);
    for &t in &THREADS[1..] {
        assert_eq!(
            progress_at(t, &bfs_run),
            reference,
            "budget-stop progress diverged at {t} threads"
        );
    }

    // The other flagship loops stop at the same cap with the same count.
    // Label propagation reads labels written earlier in the same sweep, so
    // on the R-MAT it settles within two sweeps; a sparse random graph's
    // long scrambled-id paths keep it running past the cap.
    let sparse = sym(gen::gnm(256, 320, 11));
    let runs: [(&str, Run); 4] = [
        ("sssp", &|ctx| {
            sssp::try_sssp(execution::par, ctx, &wg, 0, push()).map(drop)
        }),
        ("cc", &|ctx| {
            cc::try_cc_label_propagation(execution::par, ctx, &sparse, push()).map(drop)
        }),
        ("pagerank", &|ctx| {
            let cfg = pagerank::PrConfig::default();
            pagerank::try_pagerank(execution::par, ctx, &g, cfg, pull()).map(drop)
        }),
        ("hits", &|ctx| {
            let cfg = hits::HitsConfig::default();
            hits::try_hits(execution::par, ctx, &g, cfg, pull()).map(drop)
        }),
    ];
    for (algo, run) in runs {
        for &t in &THREADS {
            assert_eq!(
                progress_at(t, run).iterations,
                2,
                "{algo} budget stop at {t} threads"
            );
        }
    }

    // The default plan runs the same loop through the direction engine,
    // pull and dense iterations included: the cap stops it after two
    // iterations with identical progress at every thread count.
    let plan = DirectionPolicy::default();
    let adaptive: [(&str, Run); 3] = [
        ("bfs", &|ctx| {
            bfs::try_bfs(execution::par, ctx, &g, 0, plan).map(drop)
        }),
        ("sssp", &|ctx| {
            sssp::try_sssp(execution::par, ctx, &wg, 0, plan).map(drop)
        }),
        ("cc", &|ctx| {
            cc::try_cc_label_propagation(execution::par, ctx, &sparse, plan).map(drop)
        }),
    ];
    for (algo, run) in adaptive {
        let reference = progress_at(1, run);
        assert_eq!(reference.iterations, 2, "default-plan {algo}");
        assert_eq!(reference.work_trace.len(), 2, "default-plan {algo}");
        for &t in &THREADS[1..] {
            assert_eq!(
                progress_at(t, run),
                reference,
                "default-plan {algo} budget stop at {t} threads"
            );
        }
    }

    // Same for a fault-plan cancellation at an exact (iteration, chunk)
    // coordinate: the push numbers its chunks by 256-vertex frontier
    // slice at every thread count.
    let cancel_progress_at = |threads: usize| {
        let plan = Arc::new(FaultPlan::new().cancel_at(1, 0));
        let ctx = Context::new(threads).with_fault_plan(plan);
        match bfs::try_bfs(execution::par, &ctx, &g, 0, push()) {
            Err(ExecError::Budget { reason, progress }) => {
                assert_eq!(reason, BudgetReason::Cancelled);
                progress
            }
            other => panic!("expected Budget(Cancelled), got {other:?}"),
        }
    };
    let reference = cancel_progress_at(1);
    assert_eq!(reference.iterations, 1);
    for &t in &THREADS[1..] {
        assert_eq!(
            cancel_progress_at(t),
            reference,
            "fault-cancel progress diverged at {t} threads"
        );
    }
}

#[test]
fn push_fault_coordinates_are_thread_count_stable() {
    // A push chunk is a 256-vertex frontier slice at every thread count, so
    // a fault at `(1, c)` with `c > 0` stops the push after the same
    // condition calls at every width, not after a width-dependent share of
    // the level's edges.
    let g = sym(gen::rmat(12, 8, gen::RmatParams::default(), 3));
    let level = bfs::bfs(execution::par, &Context::new(1), &g, 0, push()).level;
    let level_one: SparseFrontier = (0..g.num_vertices() as VertexId)
        .filter(|&v| level[v as usize] == 1)
        .collect();
    let chunk = 2;
    assert!(
        level_one.len() > 256 * (chunk + 1),
        "level 1 holds {} vertices; the fault would land past the last chunk",
        level_one.len()
    );

    let calls_at = |threads: usize| {
        let plan = Arc::new(FaultPlan::new().cancel_at(1, chunk as u64));
        plan.set_iteration(1);
        let ctx = Context::new(threads).with_fault_plan(plan);
        let calls = std::sync::Mutex::new(Vec::new());
        let run = try_neighbors_expand(execution::par, &ctx, &g, &level_one, |s, d, _e, _w| {
            calls.lock().unwrap().push((s, d));
            level[d as usize] == 2
        });
        assert!(
            matches!(
                run,
                Err(ExecError::Budget {
                    reason: BudgetReason::Cancelled,
                    ..
                })
            ),
            "expected Budget(Cancelled) at {threads} threads, got {run:?}"
        );
        let mut calls = calls.into_inner().unwrap();
        calls.sort_unstable();
        calls
    };
    let reference = calls_at(1);
    let slices = &level_one.as_slice()[..256 * chunk];
    let want: usize = slices.iter().map(|&v| g.out_degree(v)).sum();
    assert_eq!(reference.len(), want, "chunks before the fault ran whole");
    for &t in &THREADS[1..] {
        let got = calls_at(t);
        assert_eq!(got.len(), reference.len(), "condition calls at {t} threads");
        assert_eq!(got, reference, "condition calls at {t} threads");
    }

    // The same coordinate inside BFS: identical partial progress.
    let progress_at = |threads: usize| {
        let plan = Arc::new(FaultPlan::new().cancel_at(1, chunk as u64));
        let ctx = Context::new(threads).with_fault_plan(plan);
        match bfs::try_bfs(execution::par, &ctx, &g, 0, push()) {
            Err(ExecError::Budget { reason, progress }) => {
                assert_eq!(reason, BudgetReason::Cancelled);
                progress
            }
            other => panic!("expected Budget(Cancelled), got {other:?}"),
        }
    };
    let reference = progress_at(1);
    assert_eq!(reference.iterations, 1);
    for &t in &THREADS[1..] {
        assert_eq!(progress_at(t), reference, "progress at {t} threads");
    }
}

/// Every message-passing result of one partitioning, floats as bits.
type MpRun = Vec<(&'static str, Vec<u64>, MpStats)>;

fn mp_runs(ctx: &Context, pg: &PartitionedGraph<f32>) -> MpRun {
    let bits32 = |v: Vec<f32>| v.into_iter().map(|x| u64::from(x.to_bits())).collect();
    let widen = |v: Vec<u32>| v.into_iter().map(u64::from).collect();
    let (levels, s_bfs) = mp_bfs(ctx, pg, 0);
    let (levels_c, s_bfs_c) = mp_bfs_combined(ctx, pg, 0);
    let (dist, s_sssp) = mp_sssp(ctx, pg, 0);
    let (dist_c, s_sssp_c) = mp_sssp_combined(ctx, pg, 0);
    let (rank, s_pr) = mp_pagerank(ctx, pg, 0.85, 12);
    vec![
        ("bfs", widen(levels), s_bfs),
        ("bfs combined", widen(levels_c), s_bfs_c),
        ("sssp", bits32(dist), s_sssp),
        ("sssp combined", bits32(dist_c), s_sssp_c),
        (
            "pagerank",
            rank.into_iter().map(f64::to_bits).collect(),
            s_pr,
        ),
    ]
}

#[test]
fn message_passing_bit_identical_across_thread_counts() {
    let g = weighted(gen::rmat(9, 8, gen::RmatParams::default(), 21));
    for k in [1, 3, 8] {
        let pg = PartitionedGraph::build(&g, &random_partition(g.num_vertices(), k, 5));
        let reference = mp_runs(&Context::new(1), &pg);
        for &t in &THREADS {
            for (got, want) in mp_runs(&Context::new(t), &pg).iter().zip(&reference) {
                assert!(
                    got == want,
                    "mp {} diverged at {k} ranks on {t} threads: {:?} vs {:?}",
                    want.0,
                    got.2,
                    want.2
                );
            }
        }
    }
}

#[test]
fn async_execution_varies_work_but_not_values() {
    let g = weighted(gen::grid2d(20, 20));
    let ctx = Context::new(4);
    let bsp = sssp::sssp(execution::par, &ctx, &g, 0, push());
    let asy = sssp::sssp_async(&ctx, &g, 0);
    // Same fixpoint, bit for bit.
    assert_eq!(asy.dist, bsp.dist);
    // The loop structure collapses (no supersteps) and the relaxation
    // count is schedule dependent — nothing below asserts a specific
    // value, only that the async run did real work.
    assert_eq!(asy.stats.iterations, 1);
    assert!(asy.relaxations > 0);
}

/// The async work may vary, but within a small multiple of the vertex
/// count: each worker drains its own shard FIFO, so label-correcting
/// relaxations sweep breadth-first (measured: SSSP ≤ 12 items per vertex
/// at 1/2/4 threads). A depth-first (LIFO) drain re-relaxes
/// the 64×64 grid ~10 000 times per vertex and does not finish the
/// 256×256 road grid of `examples/road_navigation.rs` in minutes.
#[test]
fn async_work_stays_within_a_small_multiple_of_the_vertex_count() {
    for side in [64, 256] {
        let g = Graph::from_coo(&gen::hash_weights(&gen::grid2d(side, side), 0.5, 3.0, 7));
        let n = g.get_num_vertices();
        for t in [1, 2] {
            let ctx = Context::new(t);
            let items = sssp::sssp_async(&ctx, &g, 0).stats.frontier_trace[0];
            assert!(
                items <= 32 * n,
                "sssp_async on {side}² at {t} threads: {items} items"
            );
        }
    }
}

#[test]
fn par_nosync_reaches_the_same_fixpoint() {
    let g = weighted(gen::rmat(8, 8, gen::RmatParams::default(), 23));
    let ctx = Context::new(4);
    let sync = sssp::sssp(execution::par, &ctx, &g, 0, push());
    let nosync = sssp::sssp(execution::par_nosync, &ctx, &g, 0, push());
    // Relaxed-ordering execution may do a different amount of work per
    // superstep, but the monotone relaxation still lands on the least
    // fixpoint.
    assert_eq!(nosync.dist, sync.dist);
}
