//! The long-lived serving engine: one immutable graph, one thread pool,
//! N concurrent requests.
//!
//! An [`Engine`] is the composition of the three serving primitives:
//!
//! - an immutable `Arc<Graph>` shared by every request (graph analytics
//!   queries are read-only, so the graph needs no locking — only the
//!   per-request *working* state does),
//! - the [`Admission`] gate bounding concurrency and keeping the light
//!   class (probes) ahead of cap-blocked heavies (analytics),
//! - the [`ScratchPool`], sized exactly to the permit count so every
//!   admitted request leases a warm scratch slot and runs allocation-free
//!   after warm-up.
//!
//! Every request flows through the same private pipeline
//! (`Engine::serve_with`): feasibility gate → acquire permit → lease
//! scratch → build a request-scoped [`Context`] (shared pool + leased
//! scratch + the request's own [`RunBudget`]) → run the algorithm → emit
//! one [`RequestEvent`] with queue/service split. Deadlines and
//! cancellation apply to the *whole* request: a deadline can expire in the
//! queue (→ [`ServeError::Rejected`]) or mid-run (→ [`ServeError::Exec`]),
//! and either way the permit and lease return on drop, so the engine is
//! immediately reusable — the resilience contract of the `try_*`
//! algorithms lifted to the serving layer.
//!
//! BFS, PageRank and HITS requests run on the default [`DirectionPolicy`]:
//! on a graph built `with_csc` the direction engine pulls where the α/β
//! rule says it pays, and on a graph without one it pushes throughout
//! (DESIGN.md §7), so the same engine serves either graph. A lock-step
//! batch pushes; its split lanes run the default plan (DESIGN.md §13).
//!
//! ## Overload resilience (DESIGN.md §16)
//!
//! Three mechanisms keep the engine useful *under* stress, not just after
//! it:
//!
//! - **Deadline-feasibility shedding.** A per-class EWMA of observed
//!   service times ([`ServiceEstimator`]) predicts, at arrival, whether a
//!   deadline request can possibly finish in time given the current
//!   backlog. An infeasible request is rejected *immediately* with
//!   [`AdmissionError::Shed`] instead of queueing, holding a ticket, and
//!   timing out later — the queue stays short and feasible requests keep
//!   their deadlines.
//! - **Degraded-mode results (brownout).** Heavy iterative requests may
//!   opt in via [`Engine::pagerank_degradable`] / [`Engine::hits_degradable`]:
//!   when the full run is predicted infeasible, the engine runs a
//!   capped-iteration version and returns the partial result tagged
//!   [`Outcome::Degraded`] with the achieved residual — an approximate
//!   answer now instead of no answer after the deadline.
//! - **Scratch quarantine.** A panic captured while a scratch lease was
//!   held parks the slot in quarantine ([`ScratchLease::quarantine`]);
//!   it is rebuilt lazily on next demand, so capacity is never lost and
//!   possibly-inconsistent scratch is never reused. [`Engine::health`]
//!   surfaces the live and cumulative counts.
//!
//! Request-keyed fault injection ([`Engine::with_chaos`]) drives all three
//! paths deterministically in the chaos soak (`tests/chaos.rs`, bench
//! experiment `chaos`).

use crate::admission::{Admission, AdmissionError, Class};
use crate::pool::{ScratchLease, ScratchPool};
use essentials_algos::bfs::{try_bfs, BfsResult};
use essentials_algos::hits::{try_hits, HitsConfig, HitsResult};
use essentials_algos::multi_source::{try_bfs_multi_source, MsBfsResult};
use essentials_algos::pagerank::{try_pagerank, PageRankResult, PrConfig};
use essentials_core::prelude::*;
use essentials_obs::{ObsSink, RequestEvent, ServiceEstimator};
use essentials_parallel::{
    panic_payload_string, ExecError, FaultPlan, RegionCounts, RequestFault, RequestFaultPlan,
    RunBudget, ThreadPool,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Engine sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads in the shared pool (subject to the
    /// [`resolve_threads`] environment override, like [`Context::new`]).
    pub threads: usize,
    /// Concurrent in-flight requests (= scratch-pool slots).
    pub permits: usize,
    /// Of those, how many may be heavy-class at once.
    pub heavy_permits: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 4,
            permits: 4,
            heavy_permits: 2,
        }
    }
}

/// Brownout policy for a degradable heavy request: the iteration cap the
/// engine falls back to when the full run is predicted
/// deadline-infeasible. A browned-out power iteration still produces a
/// usable approximate ranking — each iteration shrinks the residual
/// geometrically, so even a handful of iterations separates the big
/// scores — and the achieved residual is reported in
/// [`Outcome::Degraded`] so callers can judge the approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Brownout {
    /// Iteration cap for the degraded run (clamped to the request's own
    /// configured cap; at least 1).
    pub max_iterations: usize,
}

impl Brownout {
    /// A brownout policy capping degraded runs at `max_iterations`.
    pub fn new(max_iterations: usize) -> Self {
        Brownout {
            max_iterations: max_iterations.max(1),
        }
    }
}

/// How completely a served request ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The full computation ran to its configured convergence criteria.
    Full,
    /// A brownout run: iterations were capped below convergence because
    /// the full run was predicted deadline-infeasible.
    Degraded {
        /// Iterations the degraded run completed.
        iterations: usize,
        /// Achieved residual (the algorithm's `final_error`) at the cap —
        /// how far from converged the returned values are.
        residual: f64,
    },
}

impl Outcome {
    /// Stable outcome label for observability rows (`"ok"` /
    /// `"degraded"`).
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Full => "ok",
            Outcome::Degraded { .. } => "degraded",
        }
    }

    /// Whether this is a degraded (browned-out) result.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Outcome::Degraded { .. })
    }
}

/// A served result plus how completely it ran. Returned by the
/// degradable endpoints; the plain endpoints return the bare value (they
/// never degrade).
#[derive(Debug, Clone)]
pub struct Response<T> {
    /// The algorithm's result (partial when degraded).
    pub value: T,
    /// Full or degraded (see [`Outcome`]).
    pub outcome: Outcome,
}

/// One consistent-enough snapshot of engine occupancy and resilience
/// counters. Slot counts come from one pass over the pool, so
/// `free_slots + leased_slots + quarantined_slots == permits` always
/// holds — the zero-leak invariant the chaos soak asserts while faults
/// are flying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineHealth {
    /// Configured permit count (= scratch slots).
    pub permits: usize,
    /// Requests currently holding a permit.
    pub in_flight: usize,
    /// Of those, heavy-class requests.
    pub heavy_in_flight: usize,
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// Scratch slots currently free.
    pub free_slots: usize,
    /// Scratch slots currently leased.
    pub leased_slots: usize,
    /// Scratch slots currently quarantined (awaiting lazy rebuild).
    pub quarantined_slots: usize,
    /// Cumulative quarantine events.
    pub quarantined_total: u64,
    /// Cumulative lazy rebuilds of quarantined slots.
    pub rebuilt_total: u64,
    /// Cumulative requests shed by the deadline-feasibility gate.
    pub shed_total: u64,
    /// Cumulative degraded (browned-out) results returned.
    pub degraded_total: u64,
    /// How the requests' parallel regions ran: on the pool's workers, or
    /// on the request's own thread because another request's region held
    /// the workers (`on_caller`; such a region waits for nothing).
    pub regions: RegionCounts,
}

/// Why a request failed (see variants).
#[derive(Debug)]
pub enum ServeError {
    /// Never admitted: queued past its deadline, cancelled while queued,
    /// or shed by the deadline-feasibility gate.
    Rejected(AdmissionError),
    /// Admitted but the run failed (budget, worker panic, divergence).
    Exec(ExecError),
}

impl ServeError {
    /// Stable outcome label for observability rows.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::Rejected(e) => e.kind(),
            ServeError::Exec(e) => e.kind(),
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected(e) => write!(f, "rejected: {e}"),
            ServeError::Exec(e) => write!(f, "execution failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Rejected(e) => Some(e),
            ServeError::Exec(e) => Some(e),
        }
    }
}

impl From<AdmissionError> for ServeError {
    fn from(e: AdmissionError) -> Self {
        ServeError::Rejected(e)
    }
}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        ServeError::Exec(e)
    }
}

/// The concurrent query-serving engine (see module docs).
pub struct Engine<W: EdgeValue = ()> {
    graph: Arc<Graph<W>>,
    pool: Arc<ThreadPool>,
    scratch: ScratchPool,
    admission: Admission,
    obs: Option<Arc<dyn ObsSink>>,
    estimator: ServiceEstimator,
    chaos: Option<Arc<RequestFaultPlan>>,
    ids: AtomicU64,
    /// Cumulative requests shed by the feasibility gate (Relaxed counter;
    /// ordering relative to other requests is irrelevant for a total).
    shed_total: AtomicU64,
    /// Cumulative degraded results returned (Relaxed counter).
    degraded_total: AtomicU64,
    /// Recycled batch level tables, bounded by the permit count. A
    /// side-channel free-list, deliberately *not* a scratch checkout:
    /// recycling must never compete with an admitted request for a slot —
    /// the pool is sized exactly to the permit count, and the serve
    /// pipeline relies on a claimable slot always existing for an admitted
    /// request.
    recycled: Mutex<Vec<Vec<u32>>>,
}

impl<W: EdgeValue> Engine<W> {
    /// An engine serving `graph` with the given sizing.
    pub fn new(graph: Arc<Graph<W>>, cfg: EngineConfig) -> Self {
        let permits = cfg.permits.max(1);
        Engine {
            graph,
            pool: Arc::new(ThreadPool::new(resolve_threads(cfg.threads.max(1)))),
            scratch: ScratchPool::new(permits),
            admission: Admission::new(permits, cfg.heavy_permits),
            obs: None,
            estimator: ServiceEstimator::new(),
            chaos: None,
            ids: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            degraded_total: AtomicU64::new(0),
            // Full capacity up front so steady-state recycling never grows
            // the free-list's own storage.
            recycled: Mutex::new(Vec::with_capacity(permits)),
        }
    }

    /// Attaches an observability sink; every request emits one
    /// [`RequestEvent`] into it, and run-level events (aborts, iteration
    /// spans) flow through the request's context as usual.
    pub fn with_obs(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.obs = Some(sink);
        self
    }

    /// Attaches a request-keyed fault plan: each arriving request looks up
    /// its engine-assigned id in the plan and, on a hit, suffers the
    /// registered fault (mid-run panic, service delay, exhausted budget,
    /// poisoned recycle lock). Deterministic — the same plan against the
    /// same request sequence injects the same faults — which is what makes
    /// chaos failures replayable by `(request, iteration, chunk)` key.
    pub fn with_chaos(mut self, plan: Arc<RequestFaultPlan>) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// The graph this engine serves.
    pub fn graph(&self) -> &Arc<Graph<W>> {
        &self.graph
    }

    /// The worker pool every request's parallel regions run on. Exposed so
    /// an instrument can address the engine's workers (the allocation audit
    /// arms per-thread counting on them); requests never need it.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// The per-class service-time estimator feeding the feasibility gate.
    /// Exposed so harnesses can pre-warm predictions or inspect them; the
    /// engine feeds it automatically from every completed request.
    pub fn estimator(&self) -> &ServiceEstimator {
        &self.estimator
    }

    /// Admission snapshot `(in_flight, heavy_in_flight, queued)`.
    pub fn load(&self) -> (usize, usize, usize) {
        self.admission.snapshot()
    }

    /// Occupancy and resilience snapshot (see [`EngineHealth`]).
    pub fn health(&self) -> EngineHealth {
        let (in_flight, heavy_in_flight, queued) = self.admission.snapshot();
        let c = self.scratch.counts();
        EngineHealth {
            permits: self.scratch.len(),
            in_flight,
            heavy_in_flight,
            queued,
            free_slots: c.free,
            leased_slots: c.leased,
            quarantined_slots: c.quarantined,
            quarantined_total: self.scratch.quarantined_ever(),
            rebuilt_total: self.scratch.rebuilt_ever(),
            shed_total: self.shed_total.load(Ordering::Relaxed),
            degraded_total: self.degraded_total.load(Ordering::Relaxed),
            regions: self.pool.region_counts(),
        }
    }

    /// Single-source BFS (light class) on the default plan: it pulls
    /// where the α/β rule says so when the graph was built `with_csc`, and
    /// pushes throughout when it was not.
    pub fn bfs(&self, source: VertexId, budget: RunBudget) -> Result<BfsResult, ServeError> {
        self.serve(Class::Light, "bfs", budget, |ctx| {
            let plan = DirectionPolicy::default();
            try_bfs(execution::par, ctx, &*self.graph, source, plan)
        })
    }

    /// Multi-source batched BFS (light class): up to 64 sources in one
    /// traversal — the engine's throughput lever. Recycle the result with
    /// [`Engine::recycle_batch`] to keep the steady state allocation-free.
    /// A malformed batch (too many sources, a source outside the graph) is
    /// rejected as a typed [`ServeError::Exec`] (`invalid-input`) before
    /// any work runs, and the engine stays fully usable.
    pub fn bfs_batch(
        &self,
        sources: &[VertexId],
        budget: RunBudget,
    ) -> Result<MsBfsResult, ServeError> {
        self.serve(Class::Light, "bfs-batch", budget, |ctx| {
            // Seed the leased scratch with a previously recycled level
            // table: results leave the engine with their caller, so this
            // hand-off is what keeps repeated batches allocation-free.
            if let Some(levels) = unpoison(self.recycled.lock()).pop() {
                ctx.recycle_u32_buffer(levels);
            }
            try_bfs_multi_source(execution::par, ctx, &self.graph, sources)
        })
    }

    /// PageRank (heavy class) on the default plan: the pull scan with a
    /// CSC, the atomic scatter without. Never degrades: an infeasible
    /// deadline sheds instead — use [`Engine::pagerank_degradable`] to opt
    /// into brownout.
    pub fn pagerank(&self, cfg: PrConfig, budget: RunBudget) -> Result<PageRankResult, ServeError> {
        self.serve(Class::Heavy, "pagerank", budget, |ctx| {
            let plan = DirectionPolicy::default();
            try_pagerank(execution::par, ctx, &*self.graph, cfg, plan)
        })
    }

    /// HITS hub/authority scores (heavy class) on the default plan, like
    /// [`Engine::pagerank`]. Never degrades; see [`Engine::hits_degradable`].
    pub fn hits(&self, cfg: HitsConfig, budget: RunBudget) -> Result<HitsResult, ServeError> {
        self.serve(Class::Heavy, "hits", budget, |ctx| {
            let plan = DirectionPolicy::default();
            try_hits(execution::par, ctx, &*self.graph, cfg, plan)
        })
    }

    /// PageRank that opts into brownout: when the feasibility gate
    /// predicts the full run cannot meet its deadline, the engine runs at
    /// most `brownout.max_iterations` iterations and returns the partial
    /// ranking tagged [`Outcome::Degraded`] (with the achieved residual)
    /// instead of shedding. A degraded run that still converges inside the
    /// cap is reported [`Outcome::Full`].
    pub fn pagerank_degradable(
        &self,
        cfg: PrConfig,
        budget: RunBudget,
        brownout: Brownout,
    ) -> Result<Response<PageRankResult>, ServeError> {
        self.serve_with(
            Class::Heavy,
            "pagerank",
            budget,
            Some(brownout),
            |ctx, degrade| {
                let mut cfg = cfg;
                if let Some(b) = degrade {
                    cfg.max_iterations = cfg.max_iterations.min(b.max_iterations).max(1);
                }
                let plan = DirectionPolicy::default();
                let r = try_pagerank(execution::par, ctx, &*self.graph, cfg, plan)?;
                let outcome = match degrade {
                    Some(_) if r.final_error > cfg.tolerance => Outcome::Degraded {
                        iterations: r.stats.iterations,
                        residual: r.final_error,
                    },
                    _ => Outcome::Full,
                };
                Ok((r, outcome))
            },
        )
    }

    /// HITS that opts into brownout (see [`Engine::pagerank_degradable`]).
    pub fn hits_degradable(
        &self,
        cfg: HitsConfig,
        budget: RunBudget,
        brownout: Brownout,
    ) -> Result<Response<HitsResult>, ServeError> {
        self.serve_with(
            Class::Heavy,
            "hits",
            budget,
            Some(brownout),
            |ctx, degrade| {
                let mut cfg = cfg;
                if let Some(b) = degrade {
                    cfg.max_iterations = cfg.max_iterations.min(b.max_iterations).max(1);
                }
                let plan = DirectionPolicy::default();
                let r = try_hits(execution::par, ctx, &*self.graph, cfg, plan)?;
                let outcome = match degrade {
                    Some(_) if r.final_error > cfg.tolerance => Outcome::Degraded {
                        iterations: r.stats.iterations,
                        residual: r.final_error,
                    },
                    _ => Outcome::Full,
                };
                Ok((r, outcome))
            },
        )
    }

    /// Returns a batch result's level-table storage to the engine so a
    /// later [`Engine::bfs_batch`] reuses it instead of allocating.
    ///
    /// The buffer goes into a bounded free-list private to the engine —
    /// never through a scratch checkout, which would transiently occupy a
    /// slot and break the sizing invariant the serve pipeline relies on
    /// (permits == slots, so an admitted request always finds a free
    /// slot). A full free-list simply drops the buffer: correctness never
    /// depends on recycling.
    pub fn recycle_batch(&self, r: MsBfsResult) {
        let mut stash = unpoison(self.recycled.lock());
        if stash.len() < self.scratch.len() {
            stash.push(r.levels);
        }
    }

    /// Non-degradable requests: plain value out, shed when infeasible.
    fn serve<T>(
        &self,
        class: Class,
        kind: &'static str,
        budget: RunBudget,
        run: impl FnOnce(&Context) -> Result<T, ExecError>,
    ) -> Result<T, ServeError> {
        self.serve_with(class, kind, budget, None, |ctx, _| {
            run(ctx).map(|v| (v, Outcome::Full))
        })
        .map(|r| r.value)
    }

    /// The shared request pipeline: feasibility gate → admit → lease
    /// scratch → run (under `catch_unwind`) → observe → release or
    /// quarantine. `run` receives the brownout policy to apply (`Some`
    /// exactly when the gate chose degraded mode for an opted-in request).
    fn serve_with<T>(
        &self,
        class: Class,
        kind: &'static str,
        budget: RunBudget,
        brownout: Option<Brownout>,
        run: impl FnOnce(&Context, Option<Brownout>) -> Result<(T, Outcome), ExecError>,
    ) -> Result<Response<T>, ServeError> {
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        let fault = self.chaos.as_ref().and_then(|p| p.for_request(id));
        let budget = match fault {
            // Chaos: the request arrives with an already-exhausted
            // iteration budget — must fail typed (`iteration-cap`), not
            // hang or leak.
            Some(RequestFault::BudgetExhaust) => budget.with_max_iterations(0),
            _ => budget,
        };
        let t0 = Instant::now();

        // Deadline-feasibility gate (DESIGN.md §16): shed what cannot
        // finish in time, or switch an opted-in request to degraded mode.
        let degrade = if self.predicted_infeasible(class, &budget) {
            match brownout {
                Some(b) => Some(b),
                None => {
                    self.shed_total.fetch_add(1, Ordering::Relaxed);
                    let e = AdmissionError::Shed;
                    self.emit(RequestEvent {
                        id,
                        class: class.name(),
                        kind,
                        outcome: e.kind(),
                        queue_ns: t0.elapsed().as_nanos() as u64,
                        service_ns: 0,
                        scratch_key: usize::MAX,
                    });
                    return Err(ServeError::Rejected(e));
                }
            }
        } else {
            None
        };

        let permit = match self
            .admission
            .acquire(class, budget.deadline(), budget.cancel_token())
        {
            Ok(p) => p,
            Err(e) => {
                self.emit(RequestEvent {
                    id,
                    class: class.name(),
                    kind,
                    outcome: e.kind(),
                    queue_ns: t0.elapsed().as_nanos() as u64,
                    service_ns: 0,
                    scratch_key: usize::MAX,
                });
                return Err(ServeError::Rejected(e));
            }
        };
        let queue_ns = t0.elapsed().as_nanos() as u64;
        // Admission grants at most `permits` concurrent requests and the
        // pool has exactly `permits` slots (quarantined slots are rebuilt
        // on claim, so they still count), so a claimable slot always
        // exists.
        let lease = self
            .scratch
            .checkout()
            .expect("scratch pool sized to admission permits"); // unwrap-ok: invariant by construction
        let mut ctx =
            Context::with_parts(self.pool.clone(), lease.scratch().clone()).with_budget(budget);
        if let Some(sink) = &self.obs {
            ctx = ctx.with_obs(sink.clone());
        }
        if let Some(RequestFault::Panic { iteration, chunk }) = fault {
            // Chaos: a deterministic mid-run panic at a (iteration, chunk)
            // coordinate, captured by the thread pool like any real one.
            ctx = ctx.with_fault_plan(Arc::new(FaultPlan::new().panic_at(iteration, chunk)));
        }
        let t1 = Instant::now();
        match fault {
            // Chaos: stall inside the timed service region so the EWMA
            // sees it and the feasibility gate reacts.
            Some(RequestFault::Delay { micros }) => {
                std::thread::sleep(Duration::from_micros(micros));
            }
            // Chaos: poison the recycle free-list lock mid-service; the
            // stash-clearing `unpoison` must absorb it.
            Some(RequestFault::PoisonLock) => self.poison_recycled(),
            _ => {}
        }
        // The pool already captures worker panics into typed errors; this
        // net catches panics that escape the algorithm itself (malformed
        // setup, chaos injection outside a parallel region), so a serving
        // thread never unwinds through the engine with a lease held.
        let result: Result<(T, Outcome), ExecError> =
            match catch_unwind(AssertUnwindSafe(|| run(&ctx, degrade))) {
                Ok(r) => r,
                Err(payload) => Err(ExecError::WorkerPanic {
                    payload: panic_payload_string(payload.as_ref()),
                    // No chunk coordinate: the panic escaped the chunked
                    // region (or never entered one).
                    chunk: usize::MAX,
                }),
            };
        let service_ns = t1.elapsed().as_nanos() as u64;
        let outcome_label = match &result {
            Ok((_, outcome)) => outcome.label(),
            Err(e) => e.kind(),
        };
        if matches!(result, Ok((_, Outcome::Degraded { .. }))) {
            self.degraded_total.fetch_add(1, Ordering::Relaxed);
        }
        self.emit(RequestEvent {
            id,
            class: class.name(),
            kind,
            outcome: outcome_label,
            queue_ns,
            service_ns,
            scratch_key: lease.key(),
        });
        // A panic while the lease was held may have left the scratch
        // half-written: quarantine the slot instead of freeing it
        // (DESIGN.md §16). Every other outcome returns the slot normally.
        if matches!(result, Err(ExecError::WorkerPanic { .. })) {
            ScratchLease::quarantine(lease);
        } else {
            drop(lease);
        }
        drop(permit);
        result
            .map(|(value, outcome)| Response { value, outcome })
            .map_err(ServeError::Exec)
    }

    /// Whether a deadline request is predicted to miss even if admitted
    /// now: estimated queue-drain wait plus this class's estimated service
    /// time exceeds the time remaining. Conservative by construction —
    /// a cold estimator (no completed requests yet) predicts nothing and
    /// admits everything, and an already-expired deadline is left to the
    /// existing queue/run deadline paths so its error kind stays stable.
    fn predicted_infeasible(&self, class: Class, budget: &RunBudget) -> bool {
        let Some(deadline) = budget.deadline() else {
            return false;
        };
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        let Some(service_ns) = self.estimator.estimate_ns(class.name()) else {
            return false;
        };
        let Some(worst_ns) = self.estimator.worst_case_ns() else {
            return false;
        };
        let (in_flight, _, queued) = self.admission.snapshot();
        let permits = self.scratch.len();
        // Requests that must *finish* before ours can start, assuming
        // worst-case service for each, drained `permits` at a time.
        let backlog = (in_flight + queued + 1).saturating_sub(permits) as u64;
        let wait_ns = backlog.saturating_mul(worst_ns) / permits as u64;
        let predicted_ns = wait_ns.saturating_add(service_ns);
        let remaining_ns = deadline.saturating_duration_since(now).as_nanos() as u64;
        predicted_ns > remaining_ns
    }

    /// Chaos helper: poisons the recycle free-list mutex by panicking
    /// while holding it (the panic is caught here; the poison remains).
    fn poison_recycled(&self) {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = self.recycled.lock();
            panic!("chaos-injected: poison the recycle free-list");
        }));
    }

    fn emit(&self, ev: RequestEvent) {
        self.estimator.observe(&ev);
        if let Some(sink) = &self.obs {
            sink.on_request(&ev);
        }
    }
}

/// Recovers the recycle free-list from lock poisoning — by *discarding*
/// its contents, not trusting them: the panicking holder may have been
/// mid-push, and a recycled buffer is an optimization, never a
/// correctness dependency, so an empty stash is always safe while a
/// half-updated one is not. (This is deliberately stricter than the
/// admission gate's `relock`, whose state must be preserved to keep
/// permits balanced.)
type StashGuard<'a> = MutexGuard<'a, Vec<Vec<u32>>>;

fn unpoison<'a>(r: Result<StashGuard<'a>, PoisonError<StashGuard<'a>>>) -> StashGuard<'a> {
    match r {
        Ok(g) => g,
        Err(poisoned) => {
            // unwrap-ok-style waiver: into_inner never fails; the poison
            // flag is cleared by discarding the suspect contents below.
            let mut g = poisoned.into_inner();
            g.clear();
            g
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_graph::Coo;

    fn chain_engine(cfg: EngineConfig) -> Engine {
        // 0 → 1 → 2 → 3, plus 4 isolated.
        let g = Graph::from_coo(&Coo::<()>::from_edges(
            5,
            [(0, 1, ()), (1, 2, ()), (2, 3, ())],
        ));
        Engine::new(Arc::new(g), cfg)
    }

    #[test]
    fn bfs_and_batch_agree_through_the_engine() {
        let eng = chain_engine(EngineConfig::default());
        let single = eng.bfs(0, RunBudget::unlimited()).expect("bfs");
        let batch = eng
            .bfs_batch(&[0, 2], RunBudget::unlimited())
            .expect("batch");
        assert_eq!(batch.source_levels(0), single.level);
        assert_eq!(
            batch.source_levels(1),
            vec![
                essentials_algos::bfs::UNVISITED,
                essentials_algos::bfs::UNVISITED,
                0,
                1,
                essentials_algos::bfs::UNVISITED
            ]
        );
        eng.recycle_batch(batch);
    }

    #[test]
    fn recycled_batch_storage_feeds_the_next_batch() {
        // The free-list hand-off: a recycled level table is the storage the
        // next batched request runs on — without the recycler ever checking
        // out a scratch slot (permits = 1 makes any transient checkout by
        // recycling indistinguishable from a stolen slot).
        let eng = chain_engine(EngineConfig {
            threads: 2,
            permits: 1,
            heavy_permits: 1,
        });
        let b1 = eng
            .bfs_batch(&[0, 2], RunBudget::unlimited())
            .expect("batch 1");
        let ptr = b1.levels.as_ptr();
        eng.recycle_batch(b1);
        let b2 = eng
            .bfs_batch(&[0, 2], RunBudget::unlimited())
            .expect("batch 2");
        assert_eq!(b2.levels.as_ptr(), ptr, "recycled storage reused");
    }

    #[test]
    fn malformed_batch_is_rejected_and_engine_stays_usable() {
        let eng = chain_engine(EngineConfig::default());
        let err = eng
            .bfs_batch(&[99], RunBudget::unlimited())
            .expect_err("out-of-range source must be rejected");
        assert_eq!(err.kind(), "invalid-input");
        let too_many = vec![0u32; 65];
        let err = eng
            .bfs_batch(&too_many, RunBudget::unlimited())
            .expect_err("oversized batch must be rejected");
        assert_eq!(err.kind(), "invalid-input");
        let ok = eng
            .bfs_batch(&[0], RunBudget::unlimited())
            .expect("engine reusable after rejections");
        assert_eq!(ok.source_levels(0)[3], 3);
        assert_eq!(eng.load(), (0, 0, 0), "permits and leases all returned");
    }

    #[test]
    fn pagerank_serves_on_heavy_class() {
        let eng = chain_engine(EngineConfig::default());
        let pr = eng
            .pagerank(PrConfig::default(), RunBudget::unlimited())
            .expect("pagerank");
        assert_eq!(pr.rank.len(), 5);
        let sum: f64 = pr.rank.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "ranks sum to 1, got {sum}");
    }

    #[test]
    fn expired_deadline_rejects_and_engine_stays_usable() {
        let eng = chain_engine(EngineConfig {
            threads: 2,
            permits: 1,
            heavy_permits: 1,
        });
        // A deadline already in the past fails fast — in the queue if the
        // permit is busy, mid-run otherwise — and either way the engine
        // serves the next request normally.
        let expired = RunBudget::unlimited().with_timeout(std::time::Duration::ZERO);
        let err = eng.bfs(0, expired).expect_err("must miss the deadline");
        assert!(
            matches!(err.kind(), "deadline-expired" | "queue-deadline"),
            "unexpected outcome {}",
            err.kind()
        );
        let ok = eng.bfs(0, RunBudget::unlimited()).expect("engine reusable");
        assert_eq!(ok.level[3], 3);
    }

    #[test]
    fn infeasible_deadline_is_shed_before_queueing() {
        let eng = chain_engine(EngineConfig::default());
        // Teach the estimator that light requests take ~10s; a 50ms
        // deadline is then predictably infeasible even with zero backlog.
        eng.estimator().record_class("light", 10_000_000_000);
        let err = eng
            .bfs(
                0,
                RunBudget::unlimited().with_timeout(Duration::from_millis(50)),
            )
            .expect_err("predicted-infeasible request must be shed");
        assert_eq!(err.kind(), "shed");
        assert!(matches!(err, ServeError::Rejected(AdmissionError::Shed)));
        assert_eq!(eng.health().shed_total, 1);
        // No deadline → no gate; the engine still serves normally.
        let ok = eng.bfs(0, RunBudget::unlimited()).expect("engine reusable");
        assert_eq!(ok.level[3], 3);
    }

    #[test]
    fn feasible_deadline_is_admitted_despite_warm_estimator() {
        let eng = chain_engine(EngineConfig::default());
        // Realistic tiny estimate; a generous deadline stays feasible.
        eng.estimator().record_class("light", 50_000);
        let ok = eng
            .bfs(
                0,
                RunBudget::unlimited().with_timeout(Duration::from_secs(30)),
            )
            .expect("feasible deadline must be admitted");
        assert_eq!(ok.level[3], 3);
        assert_eq!(eng.health().shed_total, 0);
    }

    #[test]
    fn degradable_pagerank_brownouts_instead_of_shedding() {
        let eng = chain_engine(EngineConfig::default());
        eng.estimator().record_class("heavy", 10_000_000_000);
        let cfg = PrConfig {
            tolerance: 1e-300, // unreachable: every run stops at its cap
            max_iterations: 200,
            ..PrConfig::default()
        };
        let resp = eng
            .pagerank_degradable(
                cfg,
                RunBudget::unlimited().with_timeout(Duration::from_millis(50)),
                Brownout::new(3),
            )
            .expect("degradable request must run, not shed");
        match resp.outcome {
            Outcome::Degraded {
                iterations,
                residual,
            } => {
                assert!(iterations <= 3, "brownout cap respected, ran {iterations}");
                assert!(residual.is_finite() && residual > 0.0);
            }
            Outcome::Full => panic!("expected a degraded outcome"),
        }
        let sum: f64 = resp.value.rank.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "partial ranks still sum to 1");
        let health = eng.health();
        assert_eq!(health.degraded_total, 1);
        assert_eq!(health.shed_total, 0, "opt-in requests never shed");
        // Feasible requests through the same endpoint run to convergence.
        let full = eng
            .pagerank_degradable(
                PrConfig::default(),
                RunBudget::unlimited(),
                Brownout::new(3),
            )
            .expect("full run");
        assert_eq!(full.outcome, Outcome::Full);
    }

    #[test]
    fn worker_panic_quarantines_the_slot_and_capacity_recovers() {
        let plan = Arc::new(RequestFaultPlan::new().fault_at(
            0,
            RequestFault::Panic {
                iteration: 0,
                chunk: 0,
            },
        ));
        let eng = chain_engine(EngineConfig {
            threads: 2,
            permits: 1,
            heavy_permits: 1,
        })
        .with_chaos(plan);
        let err = eng
            .bfs(0, RunBudget::unlimited())
            .expect_err("injected panic must surface");
        assert_eq!(err.kind(), "worker-panic");
        let health = eng.health();
        assert_eq!(health.quarantined_slots, 1, "slot parked in quarantine");
        assert_eq!(health.quarantined_total, 1);
        assert_eq!(
            health.free_slots + health.leased_slots + health.quarantined_slots,
            health.permits,
            "no slot leaked"
        );
        // The only slot is quarantined, yet the next request is admitted,
        // claims it, and runs on a rebuilt scratch: capacity recovered.
        let ok = eng
            .bfs(0, RunBudget::unlimited())
            .expect("engine recovers by rebuilding the slot");
        assert_eq!(ok.level[3], 3);
        let health = eng.health();
        assert_eq!(health.rebuilt_total, 1);
        assert_eq!(health.quarantined_slots, 0);
        assert_eq!(health.free_slots, 1);
    }

    #[test]
    fn chaos_budget_exhaust_and_delay_fault_paths_stay_typed() {
        let plan = Arc::new(
            RequestFaultPlan::new()
                .fault_at(0, RequestFault::BudgetExhaust)
                .fault_at(1, RequestFault::Delay { micros: 100 }),
        );
        let eng = chain_engine(EngineConfig::default()).with_chaos(plan);
        let err = eng
            .pagerank(PrConfig::default(), RunBudget::unlimited())
            .expect_err("exhausted budget must fail typed");
        assert_eq!(err.kind(), "iteration-cap");
        // The delayed request still completes correctly.
        let ok = eng.bfs(0, RunBudget::unlimited()).expect("delayed bfs");
        assert_eq!(ok.level[3], 3);
        let health = eng.health();
        assert_eq!(health.quarantined_slots, 0);
        assert_eq!(health.free_slots, health.permits);
    }

    #[test]
    fn poisoned_recycle_lock_clears_the_stash_and_recycling_resumes() {
        let eng = chain_engine(EngineConfig::default());
        let b = eng
            .bfs_batch(&[0], RunBudget::unlimited())
            .expect("warm-up batch");
        eng.recycle_batch(b);
        // Poison the free-list lock with a stashed buffer inside.
        eng.poison_recycled();
        // The stash-clearing unpoison discards the suspect contents...
        let b = eng
            .bfs_batch(&[0], RunBudget::unlimited())
            .expect("bfs_batch after poison");
        assert_eq!(b.source_levels(0)[3], 3);
        // ...and recycling works normally again afterwards.
        let ptr = b.levels.as_ptr();
        eng.recycle_batch(b);
        let b2 = eng
            .bfs_batch(&[0], RunBudget::unlimited())
            .expect("recycling resumed");
        assert_eq!(b2.levels.as_ptr(), ptr, "post-poison stash works");
    }

    #[test]
    fn hits_serves_on_heavy_class_with_csc() {
        let g = Graph::from_coo(&Coo::<()>::from_edges(
            5,
            [(0, 1, ()), (1, 2, ()), (2, 3, ())],
        ))
        .with_csc();
        let eng = Engine::new(Arc::new(g), EngineConfig::default());
        let r = eng
            .hits(HitsConfig::default(), RunBudget::unlimited())
            .expect("hits");
        assert_eq!(r.hub.len(), 5);
        assert_eq!(r.authority.len(), 5);
    }
}
