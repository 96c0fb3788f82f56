//! The resilient execution layer, end to end: injected worker panics,
//! cooperative cancellation, deadline expiry, and forced divergence must
//! each surface as the matching typed [`ExecError`] — never a process
//! abort — and must leave the `Context` fully reusable: the next run on
//! the same context matches the serial oracle bit for bit and the
//! steady-state zero-allocation contract still holds.
//!
//! Fault points are driven by the deterministic [`FaultPlan`], keyed by
//! `(iteration, chunk)`: the enactor publishes the iteration, the pool's
//! chunk hooks consult the plan before every chunk, and an injected panic
//! goes through the *real* `catch_unwind` capture path — these tests
//! exercise production recovery code, not a parallel test-only path.
//!
//! The post-recovery allocation audit counts through
//! `common/counting_alloc.rs`, scoped to the measuring thread and its pool,
//! so the sibling tests of this binary do not pollute it.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use essentials::prelude::*;
use essentials_algos::{bfs, cc, pagerank, sssp};
use essentials_gen as gen;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
#[path = "common/reps.rs"]
mod reps;

use counting_alloc::count_allocs;

/// The fixed-push plan: the traversal of the paper's listings, CSR only.
fn push() -> DirectionPolicy {
    DirectionPolicy::fixed(Direction::Push)
}

/// Silences the default panic hook for *injected* panics only, so the test
/// log is not flooded by the fault plan doing its job. Installed once per
/// test binary; every real panic still prints.
fn quiet_injected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            let injected = p
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    p.downcast_ref::<String>()
                        .map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

fn sym_graph(seed: u64) -> Graph<()> {
    GraphBuilder::from_coo(gen::rmat(10, 8, gen::RmatParams::default(), seed))
        .remove_self_loops()
        .symmetrize()
        .deduplicate()
        .build()
}

fn weighted_graph(seed: u64) -> Graph<f32> {
    let mut coo = gen::rmat(10, 8, gen::RmatParams::default(), seed);
    coo.remove_self_loops();
    coo.symmetrize();
    coo.sort_and_dedup();
    Graph::from_coo(&gen::hash_weights(&coo, 0.1, 2.0, 42))
}

// ---- fault class 1: worker panic mid-advance ----------------------------

#[test]
fn worker_panic_mid_advance_is_isolated_and_the_context_recovers() {
    quiet_injected_panics();
    let g = sym_graph(11);
    let ctx = Context::new(4);
    let oracle = bfs::bfs_sequential(&g, 0).level;

    // Panic inside chunk 0 of BFS iteration 1's edge-balanced advance.
    let plan = Arc::new(FaultPlan::new().panic_at(1, 0));
    let faulty = ctx.clone().with_fault_plan(plan);
    match bfs::try_bfs(execution::par, &faulty, &g, 0, push()) {
        Err(ExecError::WorkerPanic { payload, .. }) => {
            assert!(payload.contains("injected fault"), "payload: {payload}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }

    // The clone shares pool and scratch with `ctx`: if the panic leaked a
    // scratch buffer, a worker slot, or dirty dedup-bitmap bits, this run
    // would see it. It must match the serial oracle bit for bit.
    let r = bfs::bfs(execution::par, &ctx, &g, 0, push());
    assert_eq!(r.level, oracle, "post-panic run diverged from the oracle");
    assert!(bfs::verify_bfs(&g, 0, &r.level));
}

/// The three ways an advance can fail — a budget stop, an injected
/// `(iteration, chunk)` fault, a panicking condition — each surface as the
/// matching typed error from `try_neighbors_expand_unique`, leave the dedup
/// bitmap clear, and leave the context able to re-run BFS bit for bit. One
/// body for every representation: the push expansion is one generic path,
/// so chunk hooks and panic capture apply to compressed input too.
fn advance_faults_are_typed_and_recoverable<G>(rep: &str, g: &G, oracle: &[u32])
where
    G: OutWeights<()> + InWeights<()> + Sync,
{
    let n = g.num_vertices();
    let all: SparseFrontier = (0..n as VertexId).collect();
    let mut reachable: Vec<VertexId> = (0..n as VertexId)
        .flat_map(|v| g.out_neighbors_from(v, 0))
        .collect();
    reachable.sort_unstable();
    reachable.dedup();
    // Threads = 1 takes the hook-checked serial chunk loop, 4 the
    // edge-balanced parallel one.
    for threads in [1, 4] {
        let ctx = Context::new(threads);
        let expand = |ctx: &Context, poison: Option<VertexId>| {
            try_neighbors_expand_unique(execution::par, ctx, g, &all, |_s, d, _e, _w| {
                assert!(
                    Some(d) != poison,
                    "injected fault: condition poisoned at {d}"
                );
                true
            })
        };
        let at = format!("on {rep} at {threads} threads");

        let token = CancelToken::new();
        token.cancel();
        let stopped = ctx
            .clone()
            .with_budget(RunBudget::unlimited().with_cancel(token));
        let injected = ctx
            .clone()
            .with_fault_plan(Arc::new(FaultPlan::new().panic_at(0, 0)));
        let poisoned = reachable[reachable.len() / 2];
        let is_cancel = |e: &ExecError| matches!(e, ExecError::Budget { reason, .. } if *reason == BudgetReason::Cancelled);
        let is_injected_panic = |e: &ExecError| matches!(e, ExecError::WorkerPanic { payload, .. } if payload.contains("injected fault"));
        type Fault<'a> = (
            &'a str,
            &'a dyn Fn() -> Result<SparseFrontier, ExecError>,
            &'a dyn Fn(&ExecError) -> bool,
        );
        let faults: [Fault<'_>; 3] = [
            ("budget stop", &|| expand(&stopped, None), &is_cancel),
            (
                "injected fault",
                &|| expand(&injected, None),
                &is_injected_panic,
            ),
            (
                "panicking condition",
                &|| expand(&ctx, Some(poisoned)),
                &is_injected_panic,
            ),
        ];
        for (fault, run, is_expected) in faults {
            let err = run().expect_err("the fault must surface as an error");
            assert!(is_expected(&err), "{fault} {at}: got {err:?}");
            // A leaked dedup bit would swallow its vertex here.
            let mut out = expand(&ctx, None).unwrap().into_vec();
            out.sort_unstable();
            assert_eq!(out, reachable, "dedup bitmap dirty after {fault} {at}");
            let r = bfs::bfs_adaptive(execution::par, &ctx, g, 0);
            assert_eq!(r.level, oracle, "post-{fault} BFS diverged {at}");
        }
    }
}

#[test]
fn advance_fault_semantics_hold_on_every_representation() {
    quiet_injected_panics();
    let reps = reps::Reps::new(
        GraphBuilder::from_coo(gen::rmat(10, 8, gen::RmatParams::default(), 14))
            .remove_self_loops()
            .symmetrize()
            .deduplicate()
            .with_csc()
            .build(),
    );
    let oracle = bfs::bfs_sequential(&reps.raw, 0).level;
    advance_faults_are_typed_and_recoverable("raw", &reps.raw, &oracle);
    advance_faults_are_typed_and_recoverable("compressed", &reps.compressed, &oracle);
    advance_faults_are_typed_and_recoverable("mmapped", &reps.mapped(), &oracle);
}

/// A traversal under a plan, reduced to what the rows below compare: its
/// answer as `u32`s (levels, distance bits, labels) and its direction trace.
type Traversal<'a> =
    &'a dyn Fn(&Context, DirectionPolicy) -> Result<(Vec<u32>, Vec<Direction>), ExecError>;

/// One warm advance in `dir` on `g` — the kernel a pull or dense-push
/// iteration runs — after three warm-ups; returns the allocations it made.
fn warm_advance_allocs<G, W>(ctx: &Context, g: &G, dir: Direction) -> usize
where
    W: EdgeValue,
    G: OutWeights<W> + InWeights<W> + Sync,
{
    let n = g.num_vertices();
    let all: SparseFrontier = (0..n as VertexId).collect();
    let input = DenseFrontier::new(n);
    input.set_all();
    let advance = || {
        let out = if dir == Direction::DensePush {
            try_expand_push_dense(execution::par, ctx, g, &all, |_, _, _, _| true)
        } else {
            let cfg = PullConfig { early_exit: true };
            try_expand_pull_counted(
                execution::par,
                ctx,
                g,
                &input,
                cfg,
                |_| true,
                |_, _, _| true,
            )
            .map(|(out, _)| out)
        };
        ctx.recycle_dense_frontier(out.unwrap());
    };
    for _ in 0..3 {
        advance();
    }
    count_allocs(ctx.pool(), advance)
}

/// Every plan runs through the fallible direction engine: an injected
/// panic in chunk 0 of the first iteration that leaves the push direction —
/// a pull or a dense push — surfaces as `WorkerPanic`, and the same context
/// then reruns bit-identical to the oracle, its warm kernel in that
/// direction allocating nothing.
fn plan_faults_are_typed_and_recoverable(
    what: &str,
    oracle: &[u32],
    run: Traversal<'_>,
    warm_advance: &dyn Fn(&Context, Direction) -> usize,
) {
    let plans = [
        DirectionPolicy::default(),
        DirectionPolicy::fixed(Direction::Pull),
        DirectionPolicy::fixed(Direction::DensePush),
    ];
    for threads in [1, 4] {
        let ctx = Context::new(threads);
        for plan in plans {
            let at = format!("{what} at {threads} threads under {plan:?}");
            let (answer, directions) = run(&ctx, plan).unwrap();
            assert_eq!(answer, oracle, "{at}");
            let k = directions
                .iter()
                .position(|&d| d != Direction::Push)
                .unwrap_or_else(|| panic!("{at}: every iteration pushed; the row is vacuous"));
            let fault = Arc::new(FaultPlan::new().panic_at(k as u64, 0));
            match run(&ctx.clone().with_fault_plan(fault), plan) {
                Err(ExecError::WorkerPanic { payload, .. }) => {
                    assert!(payload.contains("injected fault"), "{at}: {payload}");
                }
                other => panic!("{at}: expected WorkerPanic at iteration {k}, got {other:?}"),
            }
            let (answer, _) = run(&ctx, plan).unwrap();
            assert_eq!(answer, oracle, "{at}: rerun after the fault diverged");
            let allocs = warm_advance(&ctx, directions[k]);
            assert_eq!(
                allocs, 0,
                "{at}: warm {:?} advance allocated",
                directions[k]
            );
        }
    }
}

/// The BFS, CC and SSSP rows over one representation (`g` unweighted, `wg`
/// its weighted twin); `oracles` are the levels, labels and distance bits.
fn traversal_rows<G, H>(rep: &str, g: &G, wg: &H, oracles: [&[u32]; 3])
where
    G: OutWeights<()> + InWeights<()> + Sync,
    H: OutWeights<f32> + InWeights<f32> + Sync,
{
    let [levels, labels, dist] = oracles;
    plan_faults_are_typed_and_recoverable(
        &format!("bfs on {rep}"),
        levels,
        &|ctx, plan| bfs::try_bfs(execution::par, ctx, g, 0, plan).map(|r| (r.level, r.directions)),
        &|ctx, dir| warm_advance_allocs(ctx, g, dir),
    );
    plan_faults_are_typed_and_recoverable(
        &format!("cc on {rep}"),
        labels,
        &|ctx, plan| {
            cc::try_cc_label_propagation(execution::par, ctx, g, plan)
                .map(|r| (r.comp, r.directions))
        },
        &|ctx, dir| warm_advance_allocs(ctx, g, dir),
    );
    plan_faults_are_typed_and_recoverable(
        &format!("sssp on {rep}"),
        dist,
        &|ctx, plan| {
            sssp::try_sssp(execution::par, ctx, wg, 0, plan).map(|r| (bits(r.dist), r.directions))
        },
        &|ctx, dir| warm_advance_allocs(ctx, wg, dir),
    );
}

fn bits(dist: Vec<f32>) -> Vec<u32> {
    dist.into_iter().map(f32::to_bits).collect()
}

#[test]
fn direction_engine_faults_are_typed_and_recoverable_on_every_plan() {
    quiet_injected_panics();
    let coo = || {
        let mut coo = gen::rmat(10, 8, gen::RmatParams::default(), 15);
        coo.remove_self_loops();
        coo.symmetrize();
        coo.sort_and_dedup();
        coo
    };
    let reps = reps::Reps::new(Graph::from_coo(&coo()).with_csc());
    let repsw =
        reps::Reps::new(Graph::from_coo(&gen::hash_weights(&coo(), 0.1, 2.0, 42)).with_csc());
    let levels = bfs::bfs_sequential(&reps.raw, 0).level;
    let labels = cc::cc_union_find(&reps.raw).comp;
    let seq = Context::sequential();
    let dist = bits(sssp::sssp(execution::seq, &seq, &repsw.raw, 0, push()).dist);
    let oracles = [&levels[..], &labels, &dist];
    traversal_rows("raw", &reps.raw, &repsw.raw, oracles);
    traversal_rows("compressed", &reps.compressed, &repsw.compressed, oracles);
    traversal_rows("mmapped", &reps.mapped(), &repsw.mapped(), oracles);
}

// ---- fault class 2: cancellation mid-iteration --------------------------

#[test]
fn cancellation_mid_iteration_returns_budget_error_with_progress() {
    let g = sym_graph(12);
    let ctx = Context::new(4);
    let oracle = bfs::bfs_sequential(&g, 0).level;

    // A fault-driven cancellation observed at (iteration 1, chunk 0): one
    // iteration completed, the second stopped at its first chunk.
    let plan = Arc::new(FaultPlan::new().cancel_at(1, 0));
    let cancelled = ctx.clone().with_fault_plan(plan);
    match bfs::try_bfs(execution::par, &cancelled, &g, 0, push()) {
        Err(ExecError::Budget { reason, progress }) => {
            assert_eq!(reason, BudgetReason::Cancelled);
            assert_eq!(progress.iterations, 1, "one iteration completed");
            assert_eq!(progress.work_trace.len(), 1);
        }
        other => panic!("expected Budget(Cancelled), got {other:?}"),
    }

    // A real, already-fired CancelToken stops at the first iteration
    // boundary with zero completed iterations.
    let token = CancelToken::new();
    token.cancel();
    let budgeted = ctx
        .clone()
        .with_budget(RunBudget::unlimited().with_cancel(token));
    match bfs::try_bfs(execution::par, &budgeted, &g, 0, push()) {
        Err(ExecError::Budget { reason, progress }) => {
            assert_eq!(reason, BudgetReason::Cancelled);
            assert_eq!(progress.iterations, 0);
        }
        other => panic!("expected Budget(Cancelled), got {other:?}"),
    }

    let r = bfs::bfs(execution::par, &ctx, &g, 0, push());
    assert_eq!(r.level, oracle, "post-cancel run diverged from the oracle");
}

// ---- fault class 3: deadline expiry --------------------------------------

#[test]
fn deadline_expiry_returns_budget_error_and_the_context_stays_reusable() {
    let g = weighted_graph(13);
    let ctx = Context::new(4);
    let oracle = sssp::sssp(execution::seq, &Context::sequential(), &g, 0, push()).dist;

    let expired = ctx
        .clone()
        .with_budget(RunBudget::unlimited().with_timeout(Duration::ZERO));
    match sssp::try_sssp(execution::par, &expired, &g, 0, push()) {
        Err(ExecError::Budget { reason, .. }) => {
            assert_eq!(reason, BudgetReason::DeadlineExpired);
        }
        other => panic!("expected Budget(DeadlineExpired), got {other:?}"),
    }

    // Monotone fetch_min relaxation lands on the schedule-independent least
    // fixpoint — bit-identical to the sequential run.
    let r = sssp::sssp(execution::par, &ctx, &g, 0, push());
    assert_eq!(r.dist, oracle, "post-deadline run diverged from the oracle");
    assert!(sssp::verify_sssp(&g, 0, &r.dist, 1e-4));
}

// ---- fault class 4: forced divergence ------------------------------------

#[test]
fn forced_divergence_trips_the_convergence_watchdogs() {
    let g = GraphBuilder::from_coo(gen::gnm(200, 1200, 5))
        .remove_self_loops()
        .symmetrize()
        .deduplicate()
        .with_csc()
        .build();
    let ctx = Context::new(4);

    // damping > 1 makes the residual grow geometrically: the rising-streak
    // watchdog must fire long before the iteration cap.
    let cfg = pagerank::PrConfig {
        damping: 3.0,
        tolerance: 1e-9,
        max_iterations: 200,
    };
    match pagerank::try_pagerank_pull(execution::par, &ctx, &g, cfg) {
        Err(ExecError::Diverged { iteration, detail }) => {
            assert!(detail.contains("residual rose"), "detail: {detail}");
            assert!(iteration < 50, "watchdog too slow: iteration {iteration}");
        }
        other => panic!("expected Diverged, got {other:?}"),
    }

    // An absurd damping factor overflows to ±inf within two iterations:
    // the non-finite check fires before the streak counter can.
    let cfg = pagerank::PrConfig {
        damping: 1e155,
        tolerance: 1e-9,
        max_iterations: 200,
    };
    match pagerank::try_pagerank_pull(execution::par, &ctx, &g, cfg) {
        Err(ExecError::Diverged { detail, .. }) => {
            assert!(detail.contains("non-finite"), "detail: {detail}");
        }
        other => panic!("expected Diverged, got {other:?}"),
    }

    // The context is untouched by the failed runs: a sane configuration
    // still converges to a probability distribution.
    let r = pagerank::pagerank_pull(execution::par, &ctx, &g, pagerank::PrConfig::default());
    assert!(!r.stats.hit_iteration_cap);
    assert!(r.final_error < pagerank::PrConfig::default().tolerance);
    let mass: f64 = r.rank.iter().sum();
    assert!((mass - 1.0).abs() < 1e-6, "rank mass {mass}");
}

// ---- recovery keeps the zero-allocation steady state --------------------

#[test]
fn recovered_context_keeps_the_zero_allocation_steady_state() {
    quiet_injected_panics();
    let g: Graph<()> = Graph::from_coo(&gen::rmat(12, 8, gen::RmatParams::default(), 7));
    let n = g.num_vertices();
    let ctx = Context::new(4);
    let frontier: SparseFrontier = (0..n as VertexId).step_by(2).collect();
    let levels: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();

    let iteration = || {
        for l in &levels {
            l.store(u32::MAX, Ordering::Relaxed);
        }
        let out = neighbors_expand(execution::par, &ctx, &g, &frontier, |_s, d, _e, _w| {
            levels[d as usize]
                .compare_exchange(u32::MAX, 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        });
        ctx.recycle_frontier(out);
    };

    // Warm-up: scratch buffers grown, frontier pool primed.
    for _ in 0..3 {
        iteration();
    }

    // Inject a worker panic straight into the steady-state advance (no
    // enactor here, so the plan's iteration coordinate stays 0).
    let plan = Arc::new(FaultPlan::new().panic_at(0, 0));
    let faulty = ctx.clone().with_fault_plan(plan);
    let err = bfs::try_bfs(execution::par, &faulty, &g, 0, push()).unwrap_err();
    assert!(
        matches!(err, ExecError::WorkerPanic { .. }),
        "expected WorkerPanic, got {err:?}"
    );

    // The error path must have returned every pooled buffer: the very next
    // steady-state iteration allocates nothing.
    let allocs = count_allocs(ctx.pool(), iteration);
    assert_eq!(
        allocs, 0,
        "steady-state advance hit the allocator {allocs} times after a recovered panic"
    );
}
