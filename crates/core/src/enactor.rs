//! Loop structure and convergence conditions — essential component 4.
//!
//! Listing 4's skeleton — `while (f.size() != 0) { f = operator(...); }` —
//! generalized: the [`Enactor`] owns the iteration bookkeeping (iteration
//! counter, frontier-size trace, iteration cap) and the convergence
//! condition, so algorithms write only the per-iteration operator
//! composition. Two shapes cover the suite, one loop each:
//!
//! * [`Enactor::try_run`] — frontier-driven: converge when the frontier
//!   empties (traversal and peeling algorithms: BFS, SSSP, k-core, …);
//! * [`Enactor::try_run_until`] — state-driven: converge when a caller
//!   predicate holds (fixed-point algorithms: PageRank, HITS, Pregel).
//!
//! Both are fallible: the context's [`RunBudget`] is checked and the
//! iteration published to its [`FaultPlan`] before every iteration, and a
//! step's error passes through with the loop's progress attached.
//! Algorithms with an infallible signature panic with the error's message.
//! An enactor built with [`Enactor::for_ctx`] emits one
//! [`IterSpan`] per iteration — wall time and
//! frontier in/out sizes — into the context's observability sink.

use std::sync::Arc;
use std::time::Instant;

use essentials_frontier::Frontier;
use essentials_obs::{AbortEvent, IterSpan, LoopKind, ObsSink};
use essentials_parallel::{ExecError, FaultPlan, Progress, RunBudget};

use crate::context::Context;

/// Iteration cap applied to state-driven ([`Enactor::try_run_until`])
/// loops that set no explicit cap: a non-converging fixpoint stops here
/// instead of spinning forever and reports the hit as
/// [`ExecError::Diverged`]. Frontier-driven loops terminate structurally
/// (the frontier empties) and are not defaulted.
pub const DEFAULT_ITERATION_CAP: usize = 100_000;

/// Trace entries a loop without an explicit cap reserves up front (its
/// work trace here, the direction engine's decision trace): its first
/// this-many iterations record themselves without touching the allocator.
pub(crate) const TRACE_RESERVE: usize = 64;

/// Statistics recorded by an enacted loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Number of iterations (supersteps) executed.
    pub iterations: usize,
    /// Per-iteration work trace: the frontier size after each
    /// [`Enactor::try_run`] iteration, or the size the step reported via
    /// [`IterProgress::report_work`] for each [`Enactor::try_run_until`]
    /// iteration (0 for steps that report nothing). Always
    /// `iterations` entries long. Benches use this as the workload trace.
    pub frontier_trace: Vec<usize>,
    /// True if the loop stopped because it hit the iteration cap rather
    /// than converging.
    pub hit_iteration_cap: bool,
}

/// Per-iteration progress reporter handed to [`Enactor::try_run_until`] steps.
///
/// Fixpoint loops have no frontier for the enactor to measure, so the step
/// closure reports its own work size (vertices touched, messages exchanged,
/// residual count — whatever the algorithm's natural unit is); the enactor
/// records it in [`LoopStats::frontier_trace`] and the iteration span.
#[derive(Debug, Default)]
pub struct IterProgress {
    work: usize,
}

impl IterProgress {
    /// Reports this iteration's work size. Last call wins.
    #[inline]
    pub fn report_work(&mut self, work: usize) {
        self.work = work;
    }

    /// The reported work size (0 if never reported).
    #[inline]
    pub fn work(&self) -> usize {
        self.work
    }
}

/// The iterative loop with a convergence condition.
#[derive(Clone, Default)]
pub struct Enactor {
    max_iterations: Option<usize>,
    obs: Option<Arc<dyn ObsSink>>,
    budget: RunBudget,
    fault: Option<Arc<FaultPlan>>,
}

impl std::fmt::Debug for Enactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enactor")
            .field("max_iterations", &self.max_iterations)
            .field("obs", &self.obs.as_ref().map(|_| "Arc<dyn ObsSink>"))
            .field("budget", &self.budget)
            .finish()
    }
}

impl Enactor {
    /// An enactor with no iteration cap and no observability.
    pub fn new() -> Self {
        Enactor::default()
    }

    /// An enactor wired to `ctx`'s observability sink (if any): every
    /// iteration emits an [`IterSpan`]. It also inherits the context's
    /// [`RunBudget`] and fault plan, which the fallible loops
    /// ([`Enactor::try_run`] / [`Enactor::try_run_until`]) check at
    /// iteration boundaries. Algorithms construct their enactor this way so
    /// `Context::with_obs` and `Context::with_budget` reach loop level.
    pub fn for_ctx(ctx: &Context) -> Self {
        Enactor {
            max_iterations: None,
            obs: ctx.obs().cloned(),
            budget: ctx.budget().clone(),
            fault: ctx.fault_plan().cloned(),
        }
    }

    /// Caps the number of iterations (a safety net for non-monotone
    /// conditions; a cap hit is reported in [`LoopStats`]).
    pub fn max_iterations(mut self, k: usize) -> Self {
        self.max_iterations = Some(k);
        self
    }

    #[inline]
    fn cap(&self) -> usize {
        self.max_iterations.unwrap_or(usize::MAX)
    }

    /// The fixpoint-loop cap: the explicit cap if set, otherwise
    /// [`DEFAULT_ITERATION_CAP`].
    #[inline]
    fn fixpoint_cap(&self) -> usize {
        self.max_iterations.unwrap_or(DEFAULT_ITERATION_CAP)
    }

    /// Publishes the iteration to the fault plan (fault coordinates are
    /// keyed by `(iteration, chunk)`) and checks the run budget. On a
    /// budget stop, emits the abort event and builds the typed error with
    /// the progress gathered so far.
    #[inline]
    fn check_budget(&self, stats: &LoopStats) -> Result<(), ExecError> {
        if let Some(plan) = &self.fault {
            plan.set_iteration(stats.iterations);
        }
        if self.budget.is_unlimited() {
            return Ok(());
        }
        match self.budget.check_iteration(stats.iterations) {
            Ok(()) => Ok(()),
            Err(reason) => {
                let err = ExecError::Budget {
                    reason,
                    progress: progress_of(stats),
                };
                self.emit_abort(&err, stats.iterations);
                Err(err)
            }
        }
    }

    /// Emits an [`AbortEvent`] when a sink is attached.
    #[inline]
    fn emit_abort(&self, err: &ExecError, iteration: usize) {
        if let Some(sink) = &self.obs {
            sink.on_abort(&AbortEvent {
                kind: err.kind(),
                iteration,
            });
        }
    }

    /// Emits an iteration span when a sink is attached. Timing is only
    /// taken when the sink exists, so uninstrumented loops skip the clock
    /// reads entirely.
    #[inline]
    fn emit_span(
        &self,
        iteration: usize,
        started: Option<Instant>,
        frontier_in: usize,
        frontier_out: usize,
        loop_kind: LoopKind,
    ) {
        if let (Some(sink), Some(t0)) = (&self.obs, started) {
            sink.on_iteration(&IterSpan {
                iteration,
                wall_ns: t0.elapsed().as_nanos() as u64,
                frontier_in,
                frontier_out,
                loop_kind,
            });
        }
    }

    /// Pre-sizes the work trace so the per-iteration `push` never
    /// reallocates mid-run — part of the steady-state zero-allocation
    /// contract (DESIGN.md §12): to the explicit cap, or to
    /// [`TRACE_RESERVE`] entries when the loop runs until its frontier
    /// empties or its condition holds. Bounded so a pathological explicit
    /// cap cannot demand an absurd reservation.
    #[inline]
    fn reserve_trace(&self, stats: &mut LoopStats) {
        let k = self.max_iterations.unwrap_or(TRACE_RESERVE);
        stats.frontier_trace.reserve(k.min(4096)); // alloc-ok: once per run
    }

    /// Frontier-driven loop: runs `step(iteration, frontier)` until the
    /// frontier is empty and returns the final (empty) frontier and stats.
    /// The step returns `Result` (typically from a `try_*` operator), the
    /// context's [`RunBudget`] is checked before every iteration, and the
    /// current iteration is published to the fault plan. Budget errors
    /// carry the partial-progress stats gathered so far; errors raised by
    /// the step pass through with their progress enriched.
    pub fn try_run<S, F>(&self, init: S, mut step: F) -> Result<(S, LoopStats), ExecError>
    where
        S: Frontier,
        F: FnMut(usize, S) -> Result<S, ExecError>,
    {
        let mut frontier = init;
        let mut stats = LoopStats::default();
        self.reserve_trace(&mut stats);
        while !frontier.is_empty() {
            if stats.iterations >= self.cap() {
                stats.hit_iteration_cap = true;
                break;
            }
            self.check_budget(&stats)?;
            let frontier_in = frontier.len();
            let started = self.obs.as_ref().map(|_| Instant::now());
            frontier = match step(stats.iterations, frontier) {
                Ok(next) => next,
                Err(e) => {
                    let e = e.with_progress(progress_of(&stats));
                    self.emit_abort(&e, stats.iterations);
                    return Err(e);
                }
            };
            self.emit_span(
                stats.iterations,
                started,
                frontier_in,
                frontier.len(),
                LoopKind::Frontier,
            );
            stats.iterations += 1;
            stats.frontier_trace.push(frontier.len());
        }
        Ok((frontier, stats))
    }

    /// State-driven loop: runs `step(iteration, &mut state, &mut progress)`
    /// until it returns `Ok(true)` (converged) and returns the state and
    /// stats; each iteration's [`IterProgress`] report lands in
    /// [`LoopStats::frontier_trace`]. The budget is checked at iteration
    /// boundaries and the iteration published to the fault plan. A fixpoint
    /// that reaches [`DEFAULT_ITERATION_CAP`] without an explicit cap is
    /// reported as [`ExecError::Diverged`] — a loop that was *given* a cap
    /// hits it normally ([`LoopStats::hit_iteration_cap`], algorithms
    /// decide what that means).
    pub fn try_run_until<T, F>(
        &self,
        mut state: T,
        mut step: F,
    ) -> Result<(T, LoopStats), ExecError>
    where
        F: FnMut(usize, &mut T, &mut IterProgress) -> Result<bool, ExecError>,
    {
        let mut stats = LoopStats::default();
        self.reserve_trace(&mut stats);
        loop {
            if stats.iterations >= self.fixpoint_cap() {
                if self.max_iterations.is_none() {
                    let err = ExecError::Diverged {
                        iteration: stats.iterations,
                        detail: format!(
                            "fixpoint loop did not converge within the default cap of {DEFAULT_ITERATION_CAP} iterations"
                        ),
                    };
                    self.emit_abort(&err, stats.iterations);
                    return Err(err);
                }
                stats.hit_iteration_cap = true;
                break;
            }
            self.check_budget(&stats)?;
            let mut progress = IterProgress::default();
            let started = self.obs.as_ref().map(|_| Instant::now());
            let converged = match step(stats.iterations, &mut state, &mut progress) {
                Ok(done) => done,
                Err(e) => {
                    let e = e.with_progress(progress_of(&stats));
                    self.emit_abort(&e, stats.iterations);
                    return Err(e);
                }
            };
            self.emit_span(
                stats.iterations,
                started,
                progress.work(),
                progress.work(),
                LoopKind::Fixpoint,
            );
            stats.iterations += 1;
            stats.frontier_trace.push(progress.work());
            if converged {
                break;
            }
        }
        Ok((state, stats))
    }
}

/// The partial-progress view of a [`LoopStats`] attached to budget errors.
fn progress_of(stats: &LoopStats) -> Progress {
    Progress {
        iterations: stats.iterations,
        work_trace: stats.frontier_trace.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use essentials_frontier::SparseFrontier;
    use essentials_obs::{Record, TraceSink};

    /// Shrinks the frontier by one vertex.
    fn pop_one(_: usize, f: SparseFrontier) -> Result<SparseFrontier, ExecError> {
        let mut v = f.into_vec();
        v.pop();
        Ok(SparseFrontier::from_vec(v))
    }

    #[test]
    fn frontier_loop_runs_until_empty() {
        let init = SparseFrontier::from_vec(vec![0, 1, 2, 3]);
        let (f, stats) = Enactor::new().try_run(init, pop_one).unwrap();
        assert!(f.is_empty());
        assert_eq!(stats.iterations, 4);
        assert_eq!(stats.frontier_trace, vec![3, 2, 1, 0]);
        assert!(!stats.hit_iteration_cap);
    }

    #[test]
    fn empty_initial_frontier_means_zero_iterations() {
        let (_, stats) = Enactor::new()
            .try_run(SparseFrontier::new(), |_, f| Ok(f))
            .unwrap();
        assert_eq!(stats.iterations, 0);
    }

    #[test]
    fn iteration_cap_reported() {
        let init = SparseFrontier::single(0);
        let (_, stats) = Enactor::new()
            .max_iterations(5)
            .try_run(init, |_, f| Ok(f) /* never shrinks */)
            .unwrap();
        assert_eq!(stats.iterations, 5);
        assert!(stats.hit_iteration_cap);
    }

    #[test]
    fn budget_and_fault_plan_see_every_iteration() {
        // The budget stops the loop at its boundary with the progress so far.
        let ctx = Context::sequential().with_budget(RunBudget::unlimited().with_max_iterations(2));
        let init = SparseFrontier::from_vec(vec![0, 1, 2, 3]);
        match Enactor::for_ctx(&ctx).try_run(init, pop_one) {
            Err(ExecError::Budget { progress, .. }) => {
                assert_eq!(progress.iterations, 2);
                assert_eq!(progress.work_trace, vec![3, 2]);
            }
            other => panic!("expected a budget stop, got {other:?}"),
        }
        // The fault plan learns the iteration before each step runs.
        let plan = Arc::new(FaultPlan::new());
        let ctx = Context::sequential().with_fault_plan(plan.clone());
        let (_, stats) = Enactor::for_ctx(&ctx)
            .try_run_until(0usize, |i, seen, _| {
                assert_eq!(plan.iteration(), i as u64);
                *seen += 1;
                Ok(*seen == 3)
            })
            .unwrap();
        assert_eq!(stats.iterations, 3);
    }

    #[test]
    fn state_loop_converges_on_predicate() {
        let (x, stats) = Enactor::new()
            .try_run_until(1.0f64, |_, x, _| {
                *x /= 2.0;
                Ok(*x < 0.01)
            })
            .unwrap();
        assert!(x < 0.01);
        assert_eq!(stats.iterations, 7);
    }

    #[test]
    fn state_loop_trace_records_reported_work() {
        let (_, stats) = Enactor::new()
            .try_run_until(0usize, |i, x, progress| {
                *x += 1;
                progress.report_work(10 * (i + 1));
                Ok(*x == 3)
            })
            .unwrap();
        assert_eq!(stats.iterations, 3);
        assert_eq!(stats.frontier_trace, vec![10, 20, 30]);
    }

    #[test]
    fn state_loop_trace_defaults_to_zero_without_reports() {
        let (_, stats) = Enactor::new()
            .try_run_until(0usize, |_, x, _| {
                *x += 1;
                Ok(*x == 2)
            })
            .unwrap();
        // One entry per iteration even when the step reports nothing.
        assert_eq!(stats.frontier_trace, vec![0, 0]);
    }

    #[test]
    fn obs_enactor_emits_one_span_per_iteration() {
        let trace = Arc::new(TraceSink::new());
        let ctx = Context::sequential().with_obs(trace.clone());
        let init = SparseFrontier::from_vec(vec![0, 1]);
        let (_, stats) = Enactor::for_ctx(&ctx).try_run(init, pop_one).unwrap();
        let spans: Vec<_> = trace
            .records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Iteration(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), stats.iterations);
        assert_eq!(spans[0].frontier_in, 2);
        assert_eq!(spans[0].frontier_out, 1);
        assert_eq!(spans[0].loop_kind, LoopKind::Frontier);

        let (_, stats) = Enactor::for_ctx(&ctx)
            .try_run_until(0usize, |_, x, p| {
                *x += 1;
                p.report_work(7);
                Ok(*x == 2)
            })
            .unwrap();
        let fixpoint_spans: Vec<_> = trace
            .records()
            .into_iter()
            .filter_map(|r| match r {
                Record::Iteration(s) if s.loop_kind == LoopKind::Fixpoint => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(fixpoint_spans.len(), stats.iterations);
        assert_eq!(fixpoint_spans[0].frontier_in, 7);
    }
}
