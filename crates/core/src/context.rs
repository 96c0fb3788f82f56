//! Execution context: the thread pool an algorithm runs on, the reusable
//! scratch memory the frontier pipeline checks in and out, and the optional
//! observability sink events flow into.

use std::sync::Arc;

use essentials_frontier::{DenseFrontier, SparseFrontier};
use essentials_obs::ObsSink;
use essentials_parallel::{ChunkHooks, FaultPlan, RunBudget, ThreadPool};

use crate::scratch::{AdvanceScratch, ScratchSlot};

/// Resolves a requested worker count against the `ESSENTIALS_THREADS`
/// environment variable: a positive integer there overrides the request.
/// This is how CI pins the whole suite to 1 and 8 workers without touching
/// any call site; [`Context::sequential`] is exempt so sequential baselines
/// stay sequential.
pub fn resolve_threads(requested: usize) -> usize {
    match std::env::var("ESSENTIALS_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => requested,
        },
        Err(_) => requested,
    }
}

/// Carries the thread pool (policies are types, not state), the advance
/// scratch slot, and the optional observability sink through operators and
/// algorithms. Cheap to clone; clones share the pool, the scratch, and the
/// sink.
#[derive(Clone)]
pub struct Context {
    pool: Arc<ThreadPool>,
    scratch: Arc<ScratchSlot>,
    obs: Option<Arc<dyn ObsSink>>,
    budget: RunBudget,
    fault: Option<Arc<FaultPlan>>,
}

impl Context {
    /// A context with its own pool of `threads` workers (subject to the
    /// [`resolve_threads`] environment override).
    pub fn new(threads: usize) -> Self {
        Context::with_pool(Arc::new(ThreadPool::new(resolve_threads(threads))))
    }

    /// A single-threaded context (reference semantics / baselines). Not
    /// subject to the environment override.
    pub fn sequential() -> Self {
        Context::with_pool(Arc::new(ThreadPool::new(1)))
    }

    /// Wraps an existing shared pool.
    pub fn with_pool(pool: Arc<ThreadPool>) -> Self {
        Context::with_parts(pool, Arc::new(ScratchSlot::new()))
    }

    /// Builds a context from an existing pool **and** an existing scratch
    /// slot. This is the serving-layer constructor: a long-lived engine
    /// keeps one pool plus a checkout pool of scratch slots, and gives each
    /// admitted request a context sharing the pool but owning a leased
    /// slot — so concurrent requests never contend on (or cross-pollute)
    /// each other's scratch, while each request still reuses its slot's
    /// warmed buffers allocation-free.
    pub fn with_parts(pool: Arc<ThreadPool>, scratch: Arc<ScratchSlot>) -> Self {
        Context {
            pool,
            scratch,
            obs: None,
            budget: RunBudget::unlimited(),
            fault: None,
        }
    }

    /// Attaches a [`RunBudget`] (cancellation token, deadline, iteration
    /// cap). The fallible `try_*` operator and algorithm entry points check
    /// it at iteration and chunk boundaries; the default budget is
    /// unlimited and costs one branch per check site.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The run budget (unlimited unless [`Context::with_budget`] was
    /// called).
    #[inline]
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Attaches a deterministic [`FaultPlan`]: the fallible execution paths
    /// will inject panics/cancellations at the plan's `(iteration, chunk)`
    /// coordinates. Test-only plumbing, but safe in production (an empty
    /// plan injects nothing).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The attached fault plan, if any.
    #[inline]
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// The chunk-boundary hooks (budget + fault plan) operators hand to the
    /// pool's fallible loops.
    #[inline]
    pub fn chunk_hooks(&self) -> ChunkHooks<'_> {
        self.budget.chunk_hooks(self.fault.as_deref())
    }

    /// Attaches an observability sink; subsequent operator and enactor
    /// calls through this context (and its clones) emit events into it.
    /// With no sink attached — the default — instrumentation costs one
    /// `None` check per operator call.
    pub fn with_obs(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.obs = Some(sink);
        self
    }

    /// Detaches the observability sink.
    pub fn without_obs(mut self) -> Self {
        self.obs = None;
        self
    }

    /// The attached observability sink, if any.
    #[inline]
    pub fn obs(&self) -> Option<&Arc<dyn ObsSink>> {
        self.obs.as_ref()
    }

    /// Whether some attached sink wants per-edge operator detail
    /// (admission counts, per-worker push tallies). Producers gate the
    /// per-edge bookkeeping on this so a [`essentials_obs::NullSink`] keeps
    /// hot paths at their uninstrumented cost.
    #[inline]
    pub fn obs_wants_detail(&self) -> bool {
        match &self.obs {
            Some(s) => s.wants_op_detail(),
            None => false,
        }
    }

    /// The pool.
    #[inline]
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Worker count.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// Checks the advance scratch out of the context. Steady state this is
    /// one atomic swap; a fresh scratch is allocated only on first use or
    /// when another algorithm holds the scratch concurrently.
    pub fn take_scratch(&self) -> Box<AdvanceScratch> {
        self.scratch.take(self.num_threads())
    }

    /// Returns the scratch for the next operator call.
    pub fn put_scratch(&self, scratch: Box<AdvanceScratch>) {
        self.scratch.put(scratch);
    }

    /// Donates a spent frontier's storage to the frontier pool, so the next
    /// expansion's output reuses its capacity instead of allocating.
    /// Algorithms call this on the input frontier once an iteration has
    /// produced its successor.
    pub fn recycle_frontier(&self, f: SparseFrontier) {
        self.scratch.recycle(f, self.num_threads());
    }

    /// The dense mirror of [`Self::recycle_frontier`]: parks a spent bitmap
    /// frontier so the next pull/dense-push output over the same vertex
    /// universe reuses it instead of allocating O(n/64) words.
    pub fn recycle_dense_frontier(&self, f: DenseFrontier) {
        self.scratch.recycle_dense(f, self.num_threads());
    }

    /// An empty dense frontier over `n` vertices, drawn from the pool when a
    /// bitmap of exactly that capacity was recycled (steady state: cleared
    /// in word stores, zero allocations).
    pub fn take_dense_frontier(&self, n: usize) -> DenseFrontier {
        self.scratch.take_dense(n, self.num_threads())
    }

    /// A cleared `f64` buffer from the numeric pool — the rank
    /// double-buffers of the fixpoint algorithms and the blocked gather's
    /// value arrays draw from here, so steady-state iterations reuse
    /// capacity instead of allocating (DESIGN.md §5, §12).
    pub fn take_f64_buffer(&self) -> Vec<f64> {
        let mut s = self.take_scratch();
        let v = s.take_f64();
        self.put_scratch(s);
        v
    }

    /// Returns an `f64` buffer to the numeric pool.
    pub fn recycle_f64_buffer(&self, v: Vec<f64>) {
        let mut s = self.take_scratch();
        s.put_f64(v);
        self.put_scratch(s);
    }

    /// A cleared `u32` buffer from the numeric pool — multi-source level
    /// tables draw from here so a warm serving engine reruns queries
    /// without touching the allocator.
    pub fn take_u32_buffer(&self) -> Vec<u32> {
        let mut s = self.take_scratch();
        let v = s.take_u32();
        self.put_scratch(s);
        v
    }

    /// Returns a `u32` buffer to the numeric pool.
    pub fn recycle_u32_buffer(&self, v: Vec<u32>) {
        let mut s = self.take_scratch();
        s.put_u32(v);
        self.put_scratch(s);
    }

    /// A cleared `u64` buffer from the numeric pool — the multi-source
    /// traversals' per-vertex visited/frontier mask words draw from here.
    pub fn take_u64_buffer(&self) -> Vec<u64> {
        let mut s = self.take_scratch();
        let v = s.take_u64();
        self.put_scratch(s);
        v
    }

    /// Returns a `u64` buffer to the numeric pool.
    pub fn recycle_u64_buffer(&self, v: Vec<u64>) {
        let mut s = self.take_scratch();
        s.put_u64(v);
        self.put_scratch(s);
    }
}

impl Default for Context {
    /// Sized to available hardware parallelism (subject to the
    /// [`resolve_threads`] environment override).
    fn default() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Context::new(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_obs::{CountersSink, NullSink};

    #[test]
    fn contexts_share_pools_on_clone() {
        let ctx = Context::new(2);
        let ctx2 = ctx.clone();
        assert_eq!(ctx2.num_threads(), resolve_threads(2));
        assert!(std::ptr::eq(ctx.pool(), ctx2.pool()));
    }

    #[test]
    fn sequential_context_has_one_worker() {
        // Exempt from the environment override by contract.
        assert_eq!(Context::sequential().num_threads(), 1);
    }

    #[test]
    fn scratch_round_trips_through_the_context() {
        let ctx = Context::new(2);
        let mut s = ctx.take_scratch();
        let mut v = s.take_usize();
        v.reserve(500);
        let addr = v.as_ptr();
        s.put_usize(v);
        ctx.put_scratch(s);
        let v = ctx.take_scratch().take_usize();
        assert_eq!(v.as_ptr(), addr);
    }

    #[test]
    fn recycled_frontier_capacity_feeds_the_next_take() {
        let ctx = Context::new(2);
        let f = SparseFrontier::from_vec(Vec::with_capacity(256));
        ctx.recycle_frontier(f);
        let mut s = ctx.take_scratch();
        assert!(s.take_vec().capacity() >= 256);
    }

    #[test]
    fn recycled_dense_frontier_round_trips() {
        let ctx = Context::new(2);
        let d = DenseFrontier::new(128);
        d.insert(9);
        let addr = d.bits().words().as_ptr();
        ctx.recycle_dense_frontier(d);
        let got = ctx.take_dense_frontier(128);
        assert_eq!(got.bits().words().as_ptr(), addr);
        assert!(got.is_empty());
        // Different universe allocates fresh rather than mis-sizing.
        assert_eq!(ctx.take_dense_frontier(64).capacity(), 64);
    }

    #[test]
    fn obs_defaults_off_and_clones_share_the_sink() {
        let ctx = Context::new(2);
        assert!(ctx.obs().is_none());
        assert!(!ctx.obs_wants_detail());

        let sink: Arc<dyn ObsSink> = Arc::new(CountersSink::new(2));
        let ctx = ctx.with_obs(sink.clone());
        let clone = ctx.clone();
        assert!(Arc::ptr_eq(&sink, clone.obs().unwrap()));
        assert!(ctx.obs_wants_detail());
        assert!(ctx.without_obs().obs().is_none());
    }

    #[test]
    fn null_sink_declines_detail_through_the_context() {
        let ctx = Context::new(2).with_obs(Arc::new(NullSink));
        assert!(ctx.obs().is_some());
        assert!(!ctx.obs_wants_detail());
    }
}
