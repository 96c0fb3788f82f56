//! Typed execution errors, cooperative run budgets, and deterministic
//! fault injection.
//!
//! The paper's loop structure ("iterate until convergence", §IV) assumes
//! operators always complete and convergence always arrives. A production
//! service cannot: a worker panic must not take the process down, a caller
//! must be able to cancel or bound a long traversal, and a non-converging
//! iteration must surface as an error instead of silent garbage. This
//! module is the vocabulary for all three, shared by the pool (chunk-level
//! panic capture and budget checks), the enactor (iteration-level budget
//! checks and divergence watchdogs), and the algorithms' fallible `try_*`
//! entry points.
//!
//! Everything here is advisory-flag machinery: budget checks are relaxed
//! loads at chunk/iteration boundaries (amortized so the zero-allocation
//! and throughput contracts hold), and [`FaultPlan`] lets tests force a
//! panic or cancellation at an exact `(iteration, chunk)` coordinate so
//! recovery paths are exercised deterministically.

use std::any::Any;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline probes call `Instant::now()` only every this many chunks, so a
/// hooked hot loop stays branch-plus-relaxed-load per chunk.
const DEADLINE_CHECK_STRIDE: usize = 16;

/// Why an execution stopped before completing.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// A closure panicked inside a parallel region. The pool captured the
    /// panic, drained every other chunk, and restored its own invariants;
    /// `payload` is the stringified panic message and `chunk` the failing
    /// chunk id (worker id for raw [`crate::ThreadPool::try_run`] regions).
    WorkerPanic {
        /// Stringified panic payload (`&str`/`String` payloads verbatim).
        payload: String,
        /// Chunk id that panicked (schedule-specific numbering; worker id
        /// for raw regions).
        chunk: usize,
    },
    /// A [`RunBudget`] limit fired: the run was cancelled, its deadline
    /// expired, or it reached the iteration cap.
    Budget {
        /// Which budget limit fired.
        reason: BudgetReason,
        /// Partial-progress statistics gathered up to the stop.
        progress: Progress,
    },
    /// A convergence watchdog fired: the computation produced non-finite
    /// values or its residual is growing instead of shrinking.
    Diverged {
        /// Iteration at which divergence was detected.
        iteration: usize,
        /// Human-readable description of what the watchdog saw.
        detail: String,
    },
    /// The request itself was malformed — an out-of-range vertex, an
    /// oversized batch, or a similar caller error. `try_*` entry points
    /// raise this *before* any work starts or any pooled buffer is taken,
    /// so a serving layer can reject the request as a typed error while
    /// its context stays warm and fully reusable.
    InvalidInput {
        /// Human-readable description of what was rejected.
        detail: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::WorkerPanic { payload, chunk } => {
                write!(
                    f,
                    "worker panic in parallel region (chunk {chunk}): {payload}"
                )
            }
            ExecError::Budget { reason, progress } => {
                write!(
                    f,
                    "run budget exhausted ({reason}) after {} iterations",
                    progress.iterations
                )
            }
            ExecError::Diverged { iteration, detail } => {
                write!(f, "computation diverged at iteration {iteration}: {detail}")
            }
            ExecError::InvalidInput { detail } => write!(f, "invalid input: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// Short stable label for observability sinks and error reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecError::WorkerPanic { .. } => "worker-panic",
            ExecError::Budget { reason, .. } => reason.name(),
            ExecError::Diverged { .. } => "diverged",
            ExecError::InvalidInput { .. } => "invalid-input",
        }
    }

    /// Replaces the progress stats of a [`ExecError::Budget`] error (other
    /// variants pass through). The enactor uses this to attach
    /// loop-level progress to errors raised deeper in the stack.
    pub fn with_progress(self, progress: Progress) -> Self {
        match self {
            ExecError::Budget { reason, .. } => ExecError::Budget { reason, progress },
            other => other,
        }
    }
}

/// Which limit of a [`RunBudget`] stopped the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetReason {
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExpired,
    /// The iteration count reached `max_iterations`.
    IterationCap,
}

impl BudgetReason {
    /// Short stable label for observability sinks and error reports.
    pub fn name(&self) -> &'static str {
        match self {
            BudgetReason::Cancelled => "cancelled",
            BudgetReason::DeadlineExpired => "deadline-expired",
            BudgetReason::IterationCap => "iteration-cap",
        }
    }
}

impl fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Partial-progress statistics attached to [`ExecError::Budget`]: how far
/// the loop got before the budget fired, mirroring the obs layer's
/// per-iteration work trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Progress {
    /// Iterations fully completed before the stop.
    pub iterations: usize,
    /// Work per completed iteration (frontier sizes for frontier loops,
    /// reported work for fixpoint loops).
    pub work_trace: Vec<usize>,
}

/// Cloneable cancellation flag. `cancel()` is sticky; workers observe it
/// with a relaxed load at chunk boundaries, the enactor at iteration
/// boundaries.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested (relaxed load — advisory,
    /// the region barriers order the data).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Cooperative limits for one run: an optional [`CancelToken`], an optional
/// wall-clock deadline, and an optional iteration cap. Carried in
/// `Context`; checked at iteration boundaries by the enactor and (token +
/// deadline) at chunk boundaries inside parallel operators.
///
/// The default budget is unlimited and costs nothing to check.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    max_iterations: Option<usize>,
}

impl RunBudget {
    /// A budget with no limits (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Caps the number of enactor iterations.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = Some(max_iterations);
        self
    }

    /// Whether no limit is set (the fast path skips all checks).
    pub fn is_unlimited(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none() && self.max_iterations.is_none()
    }

    /// The iteration cap, if any.
    pub fn max_iterations(&self) -> Option<usize> {
        self.max_iterations
    }

    /// The wall-clock deadline, if any. A serving layer applies the same
    /// deadline to queue wait that the operators apply to execution, so a
    /// request cannot spend its whole budget waiting for admission.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The attached cancellation token, if any (admission queues poll it
    /// so a cancelled request stops waiting instead of occupying a slot).
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Iteration-boundary check, called by the enactor before starting
    /// iteration `iteration` (0-based). Deterministic limits (cancellation
    /// observed, iteration cap) are checked before the wall clock, so
    /// `max_iterations` runs are bit-identical across thread counts.
    pub fn check_iteration(&self, iteration: usize) -> Result<(), BudgetReason> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(BudgetReason::Cancelled);
            }
        }
        if let Some(cap) = self.max_iterations {
            if iteration >= cap {
                return Err(BudgetReason::IterationCap);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetReason::DeadlineExpired);
            }
        }
        Ok(())
    }

    /// The chunk-boundary view of this budget (plus an optional fault
    /// plan), to hand to `ThreadPool::try_parallel_for_with`.
    pub fn chunk_hooks<'a>(&'a self, fault: Option<&'a FaultPlan>) -> ChunkHooks<'a> {
        ChunkHooks {
            cancel: self.cancel.as_ref(),
            deadline: self.deadline,
            fault,
        }
    }
}

/// What a fault plan injects at a matched coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    Panic,
    Cancel,
}

/// Deterministic fault injection: forces a panic or a cancellation at
/// exact `(iteration, chunk)` coordinates. The enactor publishes the
/// current iteration with [`FaultPlan::set_iteration`]; the pool consults
/// the plan before every chunk.
///
/// Chunk numbering is schedule-specific (documented on
/// `ThreadPool::try_parallel_for_with`); the push expansion runs its
/// frontier loop under `Dynamic(256)`, so there a chunk id is the index
/// of a 256-vertex frontier slice — stable across thread counts.
#[derive(Debug, Default)]
pub struct FaultPlan {
    points: Vec<(u64, u64, FaultAction)>,
    iteration: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forces a panic inside the chunk at `(iteration, chunk)`.
    pub fn panic_at(mut self, iteration: u64, chunk: u64) -> Self {
        self.points.push((iteration, chunk, FaultAction::Panic));
        self
    }

    /// Forces a cancellation observed at `(iteration, chunk)`.
    pub fn cancel_at(mut self, iteration: u64, chunk: u64) -> Self {
        self.points.push((iteration, chunk, FaultAction::Cancel));
        self
    }

    /// A plan with `panics` panic points and `cancels` cancel points drawn
    /// from a seeded splitmix64 stream over `[0, iter_range) ×
    /// [0, chunk_range)`. Same seed, same plan — fault sweeps stay
    /// reproducible.
    pub fn seeded(
        seed: u64,
        panics: usize,
        cancels: usize,
        iter_range: u64,
        chunk_range: u64,
    ) -> Self {
        let mut next = splitmix64(seed);
        let iter_range = iter_range.max(1);
        let chunk_range = chunk_range.max(1);
        let mut plan = FaultPlan::new();
        for _ in 0..panics {
            let (i, c) = (next() % iter_range, next() % chunk_range);
            plan = plan.panic_at(i, c);
        }
        for _ in 0..cancels {
            let (i, c) = (next() % iter_range, next() % chunk_range);
            plan = plan.cancel_at(i, c);
        }
        plan
    }

    /// Publishes the current enactor iteration (relaxed store; the region
    /// barriers order everything the chunks touch).
    pub fn set_iteration(&self, iteration: usize) {
        self.iteration.store(iteration as u64, Ordering::Relaxed);
    }

    /// The iteration most recently published by the enactor.
    pub fn iteration(&self) -> u64 {
        self.iteration.load(Ordering::Relaxed)
    }

    fn on_chunk(&self, chunk: u64) -> Option<FaultAction> {
        let iteration = self.iteration.load(Ordering::Relaxed);
        self.points
            .iter()
            .find(|(i, c, _)| *i == iteration && *c == chunk)
            .map(|(_, _, a)| *a)
    }
}

/// The seeding PRNG shared by every deterministic fault generator
/// (splitmix64: the reference seeding PRNG, period 2^64). Same seed, same
/// stream — fault sweeps stay reproducible.
fn splitmix64(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One request-level fault, keyed by the serving engine's request id. The
/// chunk-level [`FaultPlan`] asks "what breaks at `(iteration, chunk)` of
/// *this run*"; a [`RequestFaultPlan`] asks "what breaks for *request r* of
/// a serving workload" — the vocabulary of the chaos soak (`tests/chaos.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFault {
    /// Inject a worker panic through the pool's real `catch_unwind` path at
    /// the given `(iteration, chunk)` coordinate of the request's run (the
    /// engine attaches a single-point [`FaultPlan`] to the request context).
    Panic {
        /// Iteration coordinate of the injected panic.
        iteration: u64,
        /// Chunk coordinate of the injected panic.
        chunk: u64,
    },
    /// Stall the request for the given duration at service start — models a
    /// slow dependency and inflates the measured service time the shedding
    /// estimator learns from.
    Delay {
        /// Stall length in microseconds.
        micros: u64,
    },
    /// Exhaust the request's iteration budget on arrival (`max_iterations`
    /// forced to zero), so the run stops with a typed `iteration-cap` error
    /// at its first boundary check.
    BudgetExhaust,
    /// Poison a serving-layer mutex (the engine's recycle free-list) by
    /// panicking while the lock is held, exercising the poison-forgiveness
    /// path.
    PoisonLock,
}

impl RequestFault {
    /// The `(iteration, chunk)` coordinate of the fault within its
    /// request's run. Request-scoped faults (delay, budget-exhaust,
    /// poison-lock) fire before any chunk runs and report `(0, 0)`.
    pub fn coordinate(self) -> (u64, u64) {
        match self {
            RequestFault::Panic { iteration, chunk } => (iteration, chunk),
            _ => (0, 0),
        }
    }

    /// Stable lowercase label for logs and replay keys.
    pub fn name(self) -> &'static str {
        match self {
            RequestFault::Panic { .. } => "panic",
            RequestFault::Delay { .. } => "delay",
            RequestFault::BudgetExhaust => "budget-exhaust",
            RequestFault::PoisonLock => "poison-lock",
        }
    }
}

/// Deterministic request-keyed fault injection for a serving engine: a map
/// from request id to the [`RequestFault`] that request suffers. Built
/// up-front (usually [`RequestFaultPlan::seeded`]) and handed to the
/// engine, which consults it once per request by id.
///
/// Every fault has a replayable key `(request, iteration, chunk)` — the
/// request id plus [`RequestFault::coordinate`] — printed verbatim by the
/// chaos soak on any assertion failure so the exact failing schedule
/// reruns from the seed.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RequestFaultPlan {
    faults: Vec<(u64, RequestFault)>,
}

impl RequestFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault for request `request`. The first fault registered for
    /// an id wins; later duplicates are inert.
    pub fn fault_at(mut self, request: u64, fault: RequestFault) -> Self {
        self.faults.push((request, fault));
        self
    }

    /// A mixed plan drawn from a seeded splitmix64 stream: `panics` panic
    /// faults (coordinates over `[0, iter_range) × [0, chunk_range)`),
    /// `delays` stalls of `delay_micros`, `budgets` budget-exhausts, and
    /// `poisons` lock poisonings, each keyed to a request id in
    /// `[0, requests)`. Same seed, same plan.
    #[allow(clippy::too_many_arguments)] // a seeded recipe, not an API surface: every knob is a count
    pub fn seeded(
        seed: u64,
        requests: u64,
        panics: usize,
        delays: usize,
        budgets: usize,
        poisons: usize,
        iter_range: u64,
        chunk_range: u64,
        delay_micros: u64,
    ) -> Self {
        let mut next = splitmix64(seed);
        let requests = requests.max(1);
        let iter_range = iter_range.max(1);
        let chunk_range = chunk_range.max(1);
        let mut plan = RequestFaultPlan::new();
        for _ in 0..panics {
            let (r, i, c) = (next() % requests, next() % iter_range, next() % chunk_range);
            plan = plan.fault_at(
                r,
                RequestFault::Panic {
                    iteration: i,
                    chunk: c,
                },
            );
        }
        for _ in 0..delays {
            let r = next() % requests;
            plan = plan.fault_at(
                r,
                RequestFault::Delay {
                    micros: delay_micros,
                },
            );
        }
        for _ in 0..budgets {
            let r = next() % requests;
            plan = plan.fault_at(r, RequestFault::BudgetExhaust);
        }
        for _ in 0..poisons {
            let r = next() % requests;
            plan = plan.fault_at(r, RequestFault::PoisonLock);
        }
        plan
    }

    /// The fault planned for request `id`, if any (first registration wins).
    pub fn for_request(&self, id: u64) -> Option<RequestFault> {
        self.faults.iter().find(|(r, _)| *r == id).map(|(_, f)| *f)
    }

    /// Every planned fault as `(request, fault)` pairs, in registration
    /// order — the chaos soak renders these as replay keys.
    pub fn faults(&self) -> &[(u64, RequestFault)] {
        &self.faults
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// What the pool should do before running a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkAction {
    /// Run the chunk normally.
    Run,
    /// Stop taking chunks; the region reports [`ExecError::Budget`].
    Stop(BudgetReason),
    /// Panic inside the chunk (fault injection): the panic goes through the
    /// real `catch_unwind` capture path at the given coordinate.
    Panic {
        /// Iteration coordinate of the injected fault.
        iteration: u64,
        /// Chunk coordinate of the injected fault.
        chunk: u64,
    },
}

/// The chunk-boundary view of a budget + fault plan, threaded into the
/// pool's fallible loops. Checks are one branch per `Option` plus a
/// relaxed load; the deadline probe is amortized to every 16th chunk
/// (`DEADLINE_CHECK_STRIDE`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkHooks<'a> {
    cancel: Option<&'a CancelToken>,
    deadline: Option<Instant>,
    fault: Option<&'a FaultPlan>,
}

impl<'a> ChunkHooks<'a> {
    /// Hooks that never fire (the no-budget fast path).
    pub const fn none() -> Self {
        ChunkHooks {
            cancel: None,
            deadline: None,
            fault: None,
        }
    }

    /// Attaches a fault plan (test-only plumbing, but safe anywhere).
    pub fn with_fault(mut self, fault: &'a FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Whether every hook is absent.
    pub fn is_empty(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none() && self.fault.is_none()
    }

    /// Called by the pool before chunk `chunk` of a fallible loop.
    pub fn before_chunk(&self, chunk: usize) -> ChunkAction {
        if let Some(token) = self.cancel {
            if token.is_cancelled() {
                return ChunkAction::Stop(BudgetReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if chunk.is_multiple_of(DEADLINE_CHECK_STRIDE) && Instant::now() >= deadline {
                return ChunkAction::Stop(BudgetReason::DeadlineExpired);
            }
        }
        if let Some(plan) = self.fault {
            match plan.on_chunk(chunk as u64) {
                Some(FaultAction::Panic) => {
                    return ChunkAction::Panic {
                        iteration: plan.iteration(),
                        chunk: chunk as u64,
                    }
                }
                Some(FaultAction::Cancel) => return ChunkAction::Stop(BudgetReason::Cancelled),
                None => {}
            }
        }
        ChunkAction::Run
    }
}

/// Renders a `catch_unwind` payload as a string: `&str` and `String`
/// payloads verbatim, anything else a placeholder.
pub fn panic_payload_string(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_sticky_and_shared() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn unlimited_budget_never_fires() {
        let b = RunBudget::unlimited();
        assert!(b.is_unlimited());
        for i in [0, 1, 1_000_000] {
            assert!(b.check_iteration(i).is_ok());
        }
    }

    #[test]
    fn iteration_cap_fires_at_exact_boundary() {
        let b = RunBudget::unlimited().with_max_iterations(3);
        assert!(b.check_iteration(2).is_ok());
        assert_eq!(b.check_iteration(3), Err(BudgetReason::IterationCap));
    }

    #[test]
    fn cancellation_beats_other_reasons() {
        let t = CancelToken::new();
        t.cancel();
        let b = RunBudget::unlimited()
            .with_cancel(t)
            .with_max_iterations(0)
            .with_deadline(Instant::now());
        assert_eq!(b.check_iteration(5), Err(BudgetReason::Cancelled));
    }

    #[test]
    fn expired_deadline_fires() {
        let b = RunBudget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.check_iteration(0), Err(BudgetReason::DeadlineExpired));
    }

    #[test]
    fn chunk_hooks_report_fault_points() {
        let plan = FaultPlan::new().panic_at(2, 7).cancel_at(3, 0);
        let budget = RunBudget::unlimited();
        let hooks = budget.chunk_hooks(Some(&plan));
        assert_eq!(hooks.before_chunk(7), ChunkAction::Run);
        plan.set_iteration(2);
        assert_eq!(
            hooks.before_chunk(7),
            ChunkAction::Panic {
                iteration: 2,
                chunk: 7
            }
        );
        assert_eq!(hooks.before_chunk(6), ChunkAction::Run);
        plan.set_iteration(3);
        assert_eq!(
            hooks.before_chunk(0),
            ChunkAction::Stop(BudgetReason::Cancelled)
        );
    }

    #[test]
    fn deadline_probe_is_amortized() {
        // An expired deadline is only noticed on stride-aligned chunks.
        let b = RunBudget::unlimited().with_deadline(Instant::now() - Duration::from_millis(1));
        let hooks = b.chunk_hooks(None);
        assert_eq!(
            hooks.before_chunk(0),
            ChunkAction::Stop(BudgetReason::DeadlineExpired)
        );
        assert_eq!(hooks.before_chunk(1), ChunkAction::Run);
        assert_eq!(
            hooks.before_chunk(DEADLINE_CHECK_STRIDE),
            ChunkAction::Stop(BudgetReason::DeadlineExpired)
        );
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 3, 2, 10, 100);
        let b = FaultPlan::seeded(42, 3, 2, 10, 100);
        assert_eq!(a.points, b.points);
        let c = FaultPlan::seeded(43, 3, 2, 10, 100);
        assert_ne!(a.points, c.points);
        assert_eq!(a.points.len(), 5);
    }

    #[test]
    fn request_fault_plans_are_reproducible_and_first_wins() {
        let a = RequestFaultPlan::seeded(42, 100, 5, 4, 3, 2, 8, 64, 500);
        let b = RequestFaultPlan::seeded(42, 100, 5, 4, 3, 2, 8, 64, 500);
        assert_eq!(a, b);
        assert_eq!(a.len(), 14);
        let c = RequestFaultPlan::seeded(43, 100, 5, 4, 3, 2, 8, 64, 500);
        assert_ne!(a, c);
        // Every planned fault is findable under its request id, and the
        // first registration for an id wins.
        let dup = RequestFaultPlan::new()
            .fault_at(7, RequestFault::BudgetExhaust)
            .fault_at(7, RequestFault::PoisonLock);
        assert_eq!(dup.for_request(7), Some(RequestFault::BudgetExhaust));
        assert_eq!(dup.for_request(8), None);
        assert!(!dup.is_empty());
    }

    #[test]
    fn request_fault_coordinates_and_names() {
        let p = RequestFault::Panic {
            iteration: 3,
            chunk: 9,
        };
        assert_eq!(p.coordinate(), (3, 9));
        assert_eq!(p.name(), "panic");
        assert_eq!(RequestFault::Delay { micros: 5 }.coordinate(), (0, 0));
        assert_eq!(RequestFault::Delay { micros: 5 }.name(), "delay");
        assert_eq!(RequestFault::BudgetExhaust.name(), "budget-exhaust");
        assert_eq!(RequestFault::PoisonLock.name(), "poison-lock");
    }

    #[test]
    fn error_display_and_kind() {
        let e = ExecError::WorkerPanic {
            payload: "boom".into(),
            chunk: 3,
        };
        assert!(e.to_string().contains("chunk 3"));
        assert_eq!(e.kind(), "worker-panic");
        let e = ExecError::Budget {
            reason: BudgetReason::DeadlineExpired,
            progress: Progress {
                iterations: 4,
                work_trace: vec![1, 2, 3, 4],
            },
        };
        assert!(e.to_string().contains("deadline-expired"));
        assert!(e.to_string().contains("4 iterations"));
        assert_eq!(e.kind(), "deadline-expired");
        let e = ExecError::Diverged {
            iteration: 9,
            detail: "non-finite residual".into(),
        };
        assert!(e.to_string().contains("iteration 9"));
        assert_eq!(e.kind(), "diverged");
        let e = ExecError::InvalidInput {
            detail: "source 9 out of range".into(),
        };
        assert!(e.to_string().contains("invalid input"));
        assert_eq!(e.kind(), "invalid-input");
        let enriched = ExecError::Budget {
            reason: BudgetReason::Cancelled,
            progress: Progress::default(),
        }
        .with_progress(Progress {
            iterations: 7,
            work_trace: vec![7],
        });
        match enriched {
            ExecError::Budget { progress, .. } => assert_eq!(progress.iterations, 7),
            other => panic!("unexpected variant {other:?}"),
        }
    }
}
