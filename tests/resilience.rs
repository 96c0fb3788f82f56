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
use essentials_algos::{bfs, cc, color, kcore, pagerank, paths, sssp, sswp};
use essentials_gen as gen;
use essentials_mp::algorithms::{mp_bfs, mp_bfs_combined};
use essentials_mp::{
    async_mp_bfs, try_run_async_mp, try_run_pregel, ComputeCtx, NeighborView, VertexProgram,
};
use essentials_partition::{random_partition, PartitionedGraph};

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

    // Panic inside chunk 0 (the first 256 frontier vertices) of BFS
    // iteration 1's push.
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
        .flat_map(|v| g.out_neighbors_from(v))
        .collect();
    reachable.sort_unstable();
    reachable.dedup();
    // The push is one hook-checked chunk loop at every width; at 4 threads
    // the dedup-bit clear of a large enough output runs on the pool.
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
    // Every plan runs the one power-iteration body, watchdog included.
    for d in [Direction::Pull, Direction::BlockedPull, Direction::Push] {
        let plan = DirectionPolicy::fixed(d);
        match pagerank::try_pagerank(execution::par, &ctx, &g, cfg, plan) {
            Err(ExecError::Diverged { iteration, detail }) => {
                assert!(detail.contains("residual rose"), "{d:?} detail: {detail}");
                assert!(
                    iteration < 50,
                    "{d:?} watchdog too slow: iteration {iteration}"
                );
            }
            other => panic!("{d:?}: expected Diverged, got {other:?}"),
        }
    }

    // An absurd damping factor overflows to ±inf within two iterations:
    // the non-finite check fires before the streak counter can.
    let cfg = pagerank::PrConfig {
        damping: 1e155,
        tolerance: 1e-9,
        max_iterations: 200,
    };
    match pagerank::try_pagerank(execution::par, &ctx, &g, cfg, DirectionPolicy::default()) {
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

// ---- message passing rides the same engine ---------------------------

/// BFS as a vertex program whose compute panics on reaching `panic_at`.
struct PanickyLevels {
    source: VertexId,
    panic_at: Option<VertexId>,
}

impl VertexProgram<()> for PanickyLevels {
    type Value = u32;
    type Msg = u32;

    fn init(&self, v: VertexId) -> u32 {
        if v == self.source {
            0
        } else {
            u32::MAX
        }
    }

    fn compute(
        &self,
        ctx: &ComputeCtx<'_, u32>,
        v: VertexId,
        level: &mut u32,
        out: NeighborView<'_, ()>,
        msgs: &[u32],
    ) {
        if self.panic_at == Some(v) {
            panic!("injected fault: vertex program at {v}");
        }
        let best = msgs.iter().copied().min().unwrap_or(*level);
        if ctx.superstep() == 0 || best < *level {
            *level = best;
            for &d in out.dsts {
                ctx.send(d, best + 1);
            }
        }
    }
}

/// A panicking vertex program, an injected `(superstep, rank)` fault and a
/// panicking asynchronous handler each return `WorkerPanic` instead of
/// leaving the other ranks waiting forever; iteration-cap and deadline
/// budgets stop a Pregel run with a typed `Budget` error and its progress.
/// After each, the same context reruns every message-passing mode to the
/// sequential oracle.
#[test]
fn message_passing_faults_are_typed_and_the_context_recovers() {
    quiet_injected_panics();
    let g = sym_graph(14);
    let ctx = Context::new(4);
    let oracle = bfs::bfs_sequential(&g, 0).level;
    let pg = PartitionedGraph::build(&g, &random_partition(g.num_vertices(), 3, 2));
    let target = g.out_neighbors(0)[0];
    let reruns_to_the_oracle = |what: &str| {
        assert_eq!(mp_bfs(&ctx, &pg, 0).0, oracle, "BSP rerun after {what}");
        assert_eq!(
            mp_bfs_combined(&ctx, &pg, 0).0,
            oracle,
            "combined rerun after {what}"
        );
        assert_eq!(
            async_mp_bfs(&ctx, &pg, 0).0,
            oracle,
            "async rerun after {what}"
        );
    };

    let panicky = PanickyLevels {
        source: 0,
        panic_at: Some(target),
    };
    match try_run_pregel(&ctx, &pg, &panicky, &[0]) {
        Err(ExecError::WorkerPanic { payload, .. }) => {
            assert!(payload.contains("vertex program at"), "payload: {payload}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    reruns_to_the_oracle("a panicking vertex program");

    let healthy = PanickyLevels {
        source: 0,
        panic_at: None,
    };
    let plan = Arc::new(FaultPlan::new().panic_at(1, 2));
    let faulty = ctx.clone().with_fault_plan(plan);
    assert!(
        matches!(
            try_run_pregel(&faulty, &pg, &healthy, &[0]),
            Err(ExecError::WorkerPanic { chunk: 2, .. })
        ),
        "the fault at (superstep 1, rank 2) must surface"
    );
    reruns_to_the_oracle("an injected fault");

    let err = try_run_async_mp(&ctx, &pg, vec![(0, 0u32)], |_, v, level, sender| {
        if v == target {
            panic!("injected fault: async handler at {v}");
        }
        for &d in g.out_neighbors(v) {
            sender.send(d, level + 1);
        }
    })
    .unwrap_err();
    assert!(
        matches!(&err, ExecError::WorkerPanic { payload, .. } if payload.contains("async handler")),
        "expected WorkerPanic, got {err:?}"
    );
    reruns_to_the_oracle("a panicking async handler");

    let capped = ctx
        .clone()
        .with_budget(RunBudget::unlimited().with_max_iterations(2));
    match try_run_pregel(&capped, &pg, &healthy, &[0]) {
        Err(ExecError::Budget { reason, progress }) => {
            assert_eq!(reason, BudgetReason::IterationCap);
            assert_eq!(progress.iterations, 2, "two supersteps completed");
            assert_eq!(progress.work_trace.len(), 2);
            assert_eq!(
                progress.work_trace[0],
                g.out_degree(0),
                "the source's sends"
            );
        }
        other => panic!("expected Budget(IterationCap), got {other:?}"),
    }
    let expired = ctx
        .clone()
        .with_budget(RunBudget::unlimited().with_timeout(Duration::ZERO));
    match try_run_pregel(&expired, &pg, &healthy, &[0]) {
        Err(ExecError::Budget { reason, progress }) => {
            assert_eq!(reason, BudgetReason::DeadlineExpired);
            assert_eq!(progress.iterations, 0);
        }
        other => panic!("expected Budget(DeadlineExpired), got {other:?}"),
    }
    reruns_to_the_oracle("budget stops");
    assert_eq!(try_run_pregel(&ctx, &pg, &healthy, &[0]).unwrap().0, oracle);
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

#[test]
fn a_fault_inside_the_unvisited_mask_build_returns_the_mask_and_the_context_stays_warm() {
    // One settling pull from vertex 0 of a 2^16-vertex ring: the one-entry
    // sparse → dense conversion runs chunk 0 only, then the unvisited-mask
    // build probes `candidate` over N / 64 words in chunks of 16 words,
    // then the pull. A fault planned at chunk 1 therefore fires inside the
    // mask build (no enactor, so the plan's iteration stays 0).
    quiet_injected_panics();
    const N: usize = 1 << 16;
    let edges = (0..N as VertexId).map(|v| (v, (v + 1) % N as VertexId, ()));
    let g = Graph::from_coo(&Coo::from_edges(N, edges)).with_csc();
    let cfg = AdaptiveConfig {
        policy: DirectionPolicy::fixed(Direction::Pull),
        early_exit: true,
        settle: true,
    };
    let (probes, scans) = (AtomicU32::new(0), AtomicU32::new(0));
    let step = |ctx: &Context, engine: &mut AdaptiveAdvance, f: VertexFrontier| {
        try_advance_adaptive(
            execution::par,
            ctx,
            &g,
            engine,
            f,
            |v| {
                probes.fetch_add(1, Ordering::Relaxed);
                v != 0
            },
            |_, _, _| {
                scans.fetch_add(1, Ordering::Relaxed);
                true
            },
        )
    };
    // A whole traversal of one step: the engine, built outside (its trace
    // vector is a once-per-run allocation), takes the step and finishes,
    // returning the mask and the output to the context's pools.
    let run = |ctx: &Context, engine: AdaptiveAdvance, f: VertexFrontier| {
        let mut engine = engine;
        let next = step(ctx, &mut engine, f).map(|next| (next, LoopStats::default()));
        engine.finish(ctx, next).map(|_| ())
    };
    let single = || VertexFrontier::Sparse(SparseFrontier::single(0));
    for threads in [1, 4] {
        let ctx = Context::new(threads);
        for _ in 0..3 {
            run(&ctx, AdaptiveAdvance::new(&g, cfg), single()).unwrap();
        }

        probes.store(0, Ordering::Relaxed);
        scans.store(0, Ordering::Relaxed);
        let faulty = ctx
            .clone()
            .with_fault_plan(Arc::new(FaultPlan::new().panic_at(0, 1)));
        match run(&faulty, AdaptiveAdvance::new(&g, cfg), single()) {
            Err(ExecError::WorkerPanic { payload, chunk }) => {
                assert!(payload.contains("injected fault"), "payload: {payload}");
                assert_eq!(chunk, 1, "{threads} threads");
            }
            other => panic!("expected WorkerPanic at {threads} threads, got {other:?}"),
        }
        // Every mask chunk but the faulted one probed its 1,024 vertices,
        // and the pull never ran.
        assert_eq!(probes.load(Ordering::Relaxed) as usize, N - 16 * 64);
        assert_eq!(scans.load(Ordering::Relaxed), 0);

        // The mask and the converted input went back to the pools: the
        // next traversal allocates nothing.
        let (engine, f) = (AdaptiveAdvance::new(&g, cfg), single());
        let allocs = count_allocs(ctx.pool(), || run(&ctx, engine, f).unwrap());
        assert_eq!(
            allocs, 0,
            "{threads} threads: warm step allocated after the fault"
        );
    }
}

// ---- the long tail honours the context ----------------------------------

/// Runs `f` and returns the message it panicked with; fails the test when
/// `f` returns normally.
fn panic_message<R>(what: &str, f: impl FnOnce() -> R) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .err()
        .unwrap_or_else(|| panic!("{what} ran to completion: it ignored the context"));
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Counts the vertex programs (`try_foreach_active` calls) that completed.
#[derive(Default)]
struct VertexPrograms(essentials_parallel::atomics::Counter);

impl ObsSink for VertexPrograms {
    fn on_compute(&self, ev: &essentials::core::obs::ComputeEvent) {
        if ev.kind == essentials::core::obs::OpKind::ForeachActive {
            self.0.add(1);
        }
    }
}

/// The algorithms outside the direction engine — widest path, the SSSP
/// tree, coloring, k-core peeling, asynchronous SSSP — keep infallible
/// signatures, but their loops run on the fallible enactor (or the
/// fallible async drain): a budget stop, a cancellation and an injected
/// fault each end the run with the typed error's message, and the same
/// context then reruns every one to its oracle.
#[test]
fn long_tail_algorithms_honour_budget_cancellation_and_fault_plan() {
    quiet_injected_panics();
    let g = sym_graph(5);
    let wg = weighted_graph(5);
    let ctx = Context::new(2);
    let cap = |k| {
        ctx.clone()
            .with_budget(RunBudget::unlimited().with_max_iterations(k))
    };
    let capped = cap(1);
    let budget = "run budget exhausted (iteration-cap) after 1 iterations";
    let delta = |ctx: &Context| {
        sssp::delta_stepping(execution::par, ctx, &wg, 0, DirectionPolicy::default(), 0.5)
    };
    for (what, msg) in [
        (
            "sswp",
            panic_message("sswp", || sswp::sswp(execution::par, &capped, &wg, 0)),
        ),
        (
            "sssp_with_parents",
            panic_message("sssp_with_parents", || {
                paths::sssp_with_parents(execution::par, &capped, &wg, 0)
            }),
        ),
        (
            "kcore_peel",
            panic_message("kcore_peel", || {
                kcore::kcore_peel(execution::par, &capped, &g)
            }),
        ),
        (
            "delta_stepping",
            panic_message("delta_stepping", || delta(&capped)),
        ),
    ] {
        assert!(msg.contains(budget), "{what}: {msg}");
    }
    // A speculative round conflicts only when two workers race, so a
    // coloring may legitimately finish in one round: a zero cap stops it
    // before its first.
    let msg = panic_message("color_greedy", || {
        color::color_greedy(execution::par, &cap(0), &g)
    });
    assert!(
        msg.contains("run budget exhausted (iteration-cap)"),
        "{msg}"
    );

    let token = CancelToken::new();
    token.cancel();
    let cancelled = ctx
        .clone()
        .with_budget(RunBudget::unlimited().with_cancel(token));
    for (what, msg) in [
        (
            "sssp_async",
            panic_message("sssp_async", || sssp::sssp_async(&cancelled, &wg, 0)),
        ),
        (
            "delta_stepping",
            panic_message("delta_stepping", || delta(&cancelled)),
        ),
    ] {
        assert!(
            msg.contains("run budget exhausted (cancelled)"),
            "{what}: {msg}"
        );
    }

    // The enactor publishes every iteration, so a fault keyed past the
    // first one fires.
    let faulty = ctx
        .clone()
        .with_fault_plan(Arc::new(FaultPlan::new().panic_at(1, 0)));
    for (what, msg) in [
        (
            "sswp",
            panic_message("sswp", || sswp::sswp(execution::par, &faulty, &wg, 0)),
        ),
        (
            "delta_stepping",
            panic_message("delta_stepping", || delta(&faulty)),
        ),
    ] {
        assert!(
            msg.contains("injected fault at (iteration 1, chunk 0)"),
            "{what}: {msg}"
        );
    }

    // The vertex programs run under the chunk hooks too. A fault keyed to
    // the first chunk of a round fires inside that round's vertex program,
    // which runs first, so the sink sees only the earlier rounds' programs
    // complete. The reruns below, on the same context, match the oracles.
    for (what, round) in [("color_greedy", 0u64), ("kcore_peel", 1)] {
        let programs = Arc::new(VertexPrograms::default());
        let faulty = ctx
            .clone()
            .with_fault_plan(Arc::new(FaultPlan::new().panic_at(round, 0)))
            .with_obs(programs.clone());
        let msg = panic_message(what, || match what {
            "color_greedy" => drop(color::color_greedy(execution::par, &faulty, &g)),
            _ => drop(kcore::kcore_peel(execution::par, &faulty, &g)),
        });
        let at = format!("injected fault at (iteration {round}, chunk 0)");
        assert!(msg.contains(&at), "{what}: {msg}");
        assert_eq!(
            programs.0.get(),
            round as usize,
            "{what}: the fault fired after round {round}'s vertex program"
        );
    }

    // Dijkstra sums in settle order, so float distances agree to rounding.
    let oracle = sssp::dijkstra(&wg, 0).dist;
    let close = |dist: &[f32]| {
        dist.iter().zip(&oracle).all(|(&a, &b)| {
            (a.is_infinite() && b.is_infinite()) || (a - b).abs() <= 1e-4 * (1.0 + b.abs())
        })
    };
    assert_eq!(
        sswp::sswp(execution::par, &ctx, &wg, 0).width,
        sswp::sswp_sequential(&wg, 0).width
    );
    let tree = paths::sssp_with_parents(execution::par, &ctx, &wg, 0);
    assert!(close(&tree.dist));
    assert!(paths::verify_sssp_tree(&wg, 0, &tree, 1e-4));
    assert!(close(&sssp::sssp_async(&ctx, &wg, 0).dist));
    assert!(close(&delta(&ctx).dist));
    let coloring = color::color_greedy(execution::par, &ctx, &g);
    assert!(color::verify_coloring(&g, &coloring.color));
    assert_eq!(
        kcore::kcore_peel(execution::par, &ctx, &g).core,
        kcore::kcore_sequential(&g).core
    );
}

// ---- the batch's split lanes ---------------------------------------------

/// A grid batch splits into one traversal per lane after four lock-step
/// levels, and each lane numbers its iterations from 0. Faults keyed to
/// iteration 6 can only fire inside a lane: a panic, a cancellation and an
/// iteration cap there each end the batch with the typed error, and the
/// same context — and the same engine slot — then serves every lane equal
/// to its oracle. CSR-only, so the lanes run the push plan.
#[test]
fn split_batch_lanes_fail_typed_and_recover_on_context_and_engine() {
    use essentials::serve::{Engine, EngineConfig};
    use essentials_algos::multi_source::{bfs_multi_source, try_bfs_multi_source};
    use essentials_parallel::{RequestFault, RequestFaultPlan};

    quiet_injected_panics();
    let g = Arc::new(Graph::<()>::from_coo(&gen::grid2d(40, 40)));
    let sources: Vec<VertexId> = (0..16).map(|i| i * 97 % 1600).collect();
    let oracle: Vec<Vec<u32>> = sources
        .iter()
        .map(|&s| bfs::bfs_sequential(&g, s).level)
        .collect();
    let assert_oracle = |what: &str, lanes: &dyn Fn(usize) -> Vec<u32>| {
        for (s, want) in oracle.iter().enumerate() {
            assert_eq!(&lanes(s), want, "{what}: lane {s}");
        }
    };

    let ctx = Context::new(2);
    let faults = [
        (FaultPlan::new().panic_at(6, 0), "worker-panic"),
        (FaultPlan::new().cancel_at(6, 0), "cancelled"),
    ];
    for (plan, kind) in faults {
        let faulty = ctx.clone().with_fault_plan(Arc::new(plan));
        let err = try_bfs_multi_source(execution::par, &faulty, &*g, &sources)
            .expect_err("a fault at lane iteration 6 fires");
        assert_eq!(err.kind(), kind);
        if let ExecError::WorkerPanic { payload, .. } = &err {
            assert!(payload.contains("(iteration 6, chunk 0)"), "{payload}");
        }
        let r = bfs_multi_source(execution::par, &ctx, &*g, &sources);
        assert_oracle(kind, &|s| r.source_levels(s));
    }
    let capped = ctx
        .clone()
        .with_budget(RunBudget::unlimited().with_max_iterations(6));
    match try_bfs_multi_source(execution::par, &capped, &*g, &sources) {
        Err(ExecError::Budget { reason, progress }) => {
            assert_eq!(reason, BudgetReason::IterationCap);
            // The probe's four levels passed the cap; the first lane
            // stopped at its own sixth.
            assert_eq!(progress.iterations, 6);
        }
        other => panic!("expected an iteration cap in the first lane, got {other:?}"),
    }
    let r = bfs_multi_source(execution::par, &ctx, &*g, &sources);
    assert_oracle("iteration cap", &|s| r.source_levels(s));
    // More iterations than a lock-step sweep could take: the lanes split.
    let deepest = oracle.iter().flatten().max().copied().unwrap_or(0) as usize;
    assert!(r.iterations > deepest + 1, "{} iterations", r.iterations);

    // The engine: one permit, so every request leases the same slot.
    let chaos = RequestFaultPlan::new().fault_at(
        0,
        RequestFault::Panic {
            iteration: 6,
            chunk: 0,
        },
    );
    let engine = Engine::new(
        g.clone(),
        EngineConfig {
            threads: 2,
            permits: 1,
            heavy_permits: 1,
        },
    )
    .with_chaos(Arc::new(chaos));
    let err = engine
        .bfs_batch(&sources, RunBudget::unlimited())
        .expect_err("request 0 panics mid-lane");
    assert_eq!(err.kind(), "worker-panic");
    let err = engine
        .bfs_batch(&sources, RunBudget::unlimited().with_max_iterations(6))
        .expect_err("the cap fires mid-lane");
    assert_eq!(err.kind(), "iteration-cap");
    for _ in 0..2 {
        let r = engine
            .bfs_batch(&sources, RunBudget::unlimited())
            .expect("the slot serves again");
        assert_oracle("engine rerun", &|s| r.source_levels(s));
        engine.recycle_batch(r);
    }
    let h = engine.health();
    assert_eq!((h.quarantined_total, h.rebuilt_total), (1, 1));
    assert_eq!(engine.load(), (0, 0, 0));
}
